"""Word primitives: parsing, order, periods, conjugates, Lyndon tools."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nyldon import (
    BINARY,
    TERNARY,
    Alphabet,
    AlphabetMismatchError,
    Factorization,
    Word,
    conjugates,
    is_lyndon,
    is_primitive,
    lyndon_words,
    nyldon_factorize,
    words_up_to,
)
from nyldon import analysis, hallsets, lazard, melancon, oracle
from nyldon.acceptance import CriterionResult
from nyldon.order import LEX
from nyldon.words import (
    _unchecked_word,
    duval_lyndon_factorization,
    minimal_period,
    minimal_period_length,
)

letters_st = st.lists(st.integers(0, 1), min_size=1, max_size=30).map(tuple)
word_st = letters_st.map(lambda t: Word(t, BINARY))


def test_parse_and_render_roundtrip():
    w = Word.parse("10011")
    assert w.letters == (1, 0, 0, 1, 1)
    assert str(w) == "10011"
    big = Alphabet(12)
    v = Word.parse("11,0,3", big)
    assert v.letters == (11, 0, 3)
    assert str(v) == "11,0,3"


def test_word_validation():
    with pytest.raises(ValueError):
        Word((), BINARY)
    with pytest.raises(ValueError):
        Word((2,), BINARY)
    with pytest.raises(ValueError):
        Word.parse("")
    with pytest.raises(ValueError, match="nonempty"):
        Word.parse("101")[2:1]
    with pytest.raises(ValueError):
        Alphabet(1)


@given(letters_st)
def test_unchecked_word_is_an_ordinary_word(t):
    w = _unchecked_word(t, BINARY)
    assert w == Word(t, BINARY) and hash(w) == hash(Word(t, BINARY))
    assert str(w) == "".join(map(str, t)) and not w < Word(t, BINARY)
    with pytest.raises(AttributeError):
        w.letters = (0,)


def test_concat_power_slice_rotate():
    w = Word.parse("101")
    assert str(w + Word.parse("0")) == "1010"
    assert str(w * 3) == "101101101"
    assert str(w[1:]) == "01"
    assert w[0] == 1
    assert str(w.rotate(1)) == "011"
    assert str(w.rotate(-1)) == "110"
    with pytest.raises(ValueError):
        w * 0


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        Word.parse("1") + Word.parse("1", TERNARY)
    for compare in ("__lt__", "__le__", "__gt__", "__ge__"):
        with pytest.raises(AlphabetMismatchError):
            getattr(Word.parse("1"), compare)(Word.parse("1", TERNARY))
    assert Word.parse("1") != Word.parse("1", TERNARY)


def test_prefix_sorts_before_extension():
    assert Word.parse("10") < Word.parse("100")
    assert Word.parse("10") < Word.parse("101")
    ten = Word.parse("10")
    assert ten <= ten and not ten < ten


@given(word_st, word_st, word_st)
def test_lex_is_a_total_order(u, v, w):
    assert (u < v) == (v > u) and (u <= v) == (v >= u)
    assert (u < v) + (u == v) + (u > v) == 1
    if u <= v and v <= w:
        assert u <= w
    assert (u == v) == (u.letters == v.letters)


@given(word_st, st.integers(1, 5))
def test_minimal_period_divides_and_generates(w, k):
    p = minimal_period(w * k)
    assert len(w * k) % len(p) == 0
    assert p * (len(w * k) // len(p)) == w * k
    assert minimal_period(p) == p
    assert is_primitive(p)


def test_minimal_period_examples():
    assert minimal_period_length((1, 0, 1, 0)) == 2
    assert minimal_period_length((1, 0, 1)) == 3
    assert str(minimal_period(Word.parse("101101"))) == "101"


def test_conjugates():
    w = Word.parse("100")
    assert [str(c) for c in conjugates(w)] == ["100", "001", "010"]


def test_duval_factorization_examples():
    f = duval_lyndon_factorization(Word.parse("10010110"))
    assert f.verify(Word.parse("10010110"))
    assert f.order_witness == "lex:nonincreasing"
    assert [str(x) for x in f.factors] == ["1", "001011", "0"]


@given(word_st)
def test_duval_factors_are_lyndon_and_nonincreasing(w):
    f = duval_lyndon_factorization(w)
    assert f.word == w
    assert all(is_lyndon(x) for x in f.factors)
    assert all(a >= b for a, b in zip(f.factors, f.factors[1:]))
    for left, right in zip(f.factors, f.factors[1:]):
        assert (left is right) == (left == right)


def test_duval_repeated_factors_hold_one_word():
    f = duval_lyndon_factorization(Word((1,) * 10**4 + (0,), BINARY))
    assert [str(x) for x in f.factors] == ["1"] * 10**4 + ["0"]
    assert len({id(x) for x in f.factors}) == 2


def test_lyndon_words_enumeration():
    got = [str(w) for w in lyndon_words(BINARY, 4)]
    assert got == ["0", "0001", "001", "0011", "01", "011", "0111", "1"]
    assert all(is_lyndon(w) for w in lyndon_words(TERNARY, 4))


def test_words_up_to_is_shortlex():
    got = [str(w) for w in words_up_to(BINARY, 2)]
    assert got == ["0", "1", "00", "01", "10", "11"]


def test_factorization_verify():
    f = Factorization((Word.parse("1000"), Word.parse("1011010101")))
    assert f.verify(Word.parse("10001011010101"))
    assert not f.verify(Word.parse("1000"))
    bad = Factorization((Word.parse("11"), Word.parse("10")))
    assert not bad.verify()
    with pytest.raises(ValueError):
        Factorization(())


def test_factorization_word_checks_every_alphabet():
    mixed = Factorization((Word.parse("1"), Word.parse("0"), Word.parse("2", TERNARY)))
    with pytest.raises(AlphabetMismatchError):
        mixed.word


def test_factorization_word_is_linear_in_the_factors():
    # 0^k 1 has n one-letter factors; joining them one `+` at a time took 7 s
    # at n = 2 * 10^4
    source = Word((0,) * (10**5 - 1) + (1,), BINARY)
    fact = nyldon_factorize(source)
    assert len(fact) == 10**5
    assert fact.word == source and fact.verify(source)


# The value contract of Alphabet, Word, Factorization and one record of each
# module that builds its value classes on words._Frozen: repr, equality,
# hashing, immutability, copying and pickling.
FACTORIZATION = Factorization((Word.parse("1000"), Word.parse("1011010101")))
GSET = hallsets.generate(LEX, BINARY, 5)
CODE = [Word.parse(text) for text in ("00", "01", "10")]
VALUES = [
    (Alphabet(12), "size"),
    (Word.parse("10011"), "letters"),
    (FACTORIZATION, "factors"),
    (hallsets.verify_hall(GSET, LEX), "counterexamples"),
    (lazard.lazard_report(BINARY, 5), "encoded"),
    (GSET, "member_tuples"),
    (analysis.circular_code_check(CODE), "witness"),
    (CriterionResult(9, "circular codes", True, "detail", 0.25), "detail"),
]
VALUE_IDS = [
    "Alphabet",
    "Word",
    "Factorization",
    "HallVerdict",
    "LazardReport",
    "GeneratedSet",
    "CircularCodeVerdict",
    "CriterionResult",
]
# records whose fields hold a dict or lists, so they compare but do not hash
UNHASHABLE = [
    (analysis.k_bound_scan(BINARY, 6), "histogram"),
    (melancon.contraction_trace(Word.parse("1001"), LEX, mode="linear"), "snapshots"),
]


def test_value_reprs():
    assert repr(Alphabet(12)) == "Alphabet(size=12)"
    assert repr(Word.parse("10011")) == "Word('10011', size=2)"
    assert repr(Word.parse("11,0,3", Alphabet(12))) == "Word('11,0,3', size=12)"
    assert repr(FACTORIZATION) == (
        "Factorization(factors=(Word('1000', size=2), Word('1011010101', size=2)),"
        " order_witness='lex:nondecreasing')"
    )


@given(letters_st, letters_st)
def test_equal_words_hash_equal(s, t):
    u, v = Word(s, BINARY), Word(t, BINARY)
    assert (u == v) == (s == t) and (u != v) == (s != t)
    if u == v:
        assert hash(u) == hash(v) and {u: 1}[v] == 1


@pytest.mark.parametrize("value, field", VALUES, ids=VALUE_IDS)
def test_values_are_frozen(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("value", [value for value, _ in VALUES], ids=VALUE_IDS)
def test_values_copy_and_pickle(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(value, protocol))
        assert clone == value and hash(clone) == hash(value), protocol
    for clone in (copy.copy(value), copy.deepcopy(value)):
        assert clone == value and type(clone) is type(value)


def test_keyword_construction():
    ternary = Alphabet(size=3)
    w = Word(letters=[2, 0], alphabet=ternary)
    assert w == Word((2, 0), TERNARY) and w.letters == (2, 0)
    assert Word(letters=(1,)).alphabet == BINARY
    f = Factorization(factors=(w,), order_witness="lex:nonincreasing")
    assert f == Factorization((w,), "lex:nonincreasing")
    assert f != Factorization((w,))


def test_values_equal_only_their_own_class():
    w = Word.parse("10")
    assert w != (1, 0) and not w == (1, 0) and w != "10"
    assert Alphabet(2) != 2 and FACTORIZATION != FACTORIZATION.factors
    for value, _ in VALUES:
        assert type(value).__eq__(value, object()) is NotImplemented


@pytest.mark.parametrize("value, field", UNHASHABLE, ids=["KBoundReport", "ContractionTrace"])
def test_records_with_mutable_fields_are_frozen_but_unhashable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(TypeError):
        hash(value)
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert clone == value and type(clone) is type(value)
    assert type(value).__eq__(value, object()) is NotImplemented


def test_record_constructor_binds_fields_like_a_signature():
    fields = (BINARY, 3, "lex", frozenset({(0,), (1,), (1, 0)}))
    gset = oracle.GeneratedSet(*fields)
    assert oracle.GeneratedSet(BINARY, 3, policy_id="lex", member_tuples=fields[3]) == gset
    assert oracle.GeneratedSet(**dict(zip(oracle.GeneratedSet.__slots__, fields))) == gset
    assert repr(gset) == (
        "GeneratedSet(alphabet=Alphabet(size=2), max_len=3, policy_id='lex', "
        f"member_tuples={fields[3]!r})"
    )
    for args, kwargs in [
        (fields[:3], {}),  # missing
        (fields + (None,), {}),  # extra
        (fields, {"max_len": 3}),  # twice
        (fields[:3], {"members": fields[3]}),  # unknown
    ]:
        with pytest.raises(TypeError):
            oracle.GeneratedSet(*args, **kwargs)
