"""Policy-generated sets and their Hall/Viennot verdicts."""

import itertools

import pytest

from nyldon import (
    BINARY,
    LEX,
    RLEX,
    TERNARY,
    InvariantError,
    PolicyViolationError,
    Word,
    generate,
    melancon,
    oracle,
    verify_hall,
)
from nyldon.hallsets import FactorizationCheck, validate_nyldon_like
from nyldon.hallsets import verify_factorization_property
from nyldon.order import OrderPolicy, register_policy
from nyldon.words import is_lyndon, words_up_to


def _colex(u, v):
    """Compare reversed tuples lexicographically."""
    ru, rv = u[::-1], v[::-1]
    if ru == rv:
        return 0
    return -1 if ru < rv else 1


COLEX = OrderPolicy("colex-test", _colex, assume_nyldon_like=False)


@pytest.mark.parametrize("policy", [LEX, RLEX, COLEX], ids=lambda p: p.id)
@pytest.mark.parametrize(
    "alphabet, top", [(BINARY, 10), (TERNARY, 6)], ids=["binary", "ternary"]
)
def test_lex_set_matches_oracle(policy, alphabet, top):
    # One circular contraction per Lyndon word gives the set the definition
    # gives, word by word, for every truncation bound.
    register_policy(policy)
    for n in range(1, top + 1):
        gset = generate(policy, alphabet, n, validate=False)
        expected = oracle.enumerate_members(alphabet, n, policy)
        assert gset.member_tuples == expected.member_tuples, n
    # re-deriving membership from the smaller members agrees on every word
    for word in words_up_to(alphabet, top):
        assert oracle.is_member_bruteforce(word, gset) == (word in gset), word


def test_wrong_conjugate_is_caught_by_cross_check(monkeypatch):
    # Returning the Lyndon representative itself puts 01 in the lex set in
    # place of 10, which the growth clause accepts; re-deriving membership
    # from the definition must not.
    monkeypatch.setattr(melancon, "conjugate", lambda word, policy: word)
    with pytest.raises(InvariantError):
        generate(LEX, BINARY, 4)


def test_lex_verdict():
    gset = generate(LEX, BINARY, 7)
    verdict = verify_hall(gset, LEX)
    assert verdict.is_factorization
    assert verdict.is_right_hall
    assert not verdict.is_left_hall
    assert not verdict.is_viennot
    assert verdict.nyldon_like_ok
    clauses = {c for _, _, c in verdict.counterexamples}
    assert clauses == {"left_hall"}
    d = verdict.to_dict()
    assert d["policy_id"] == "lex"
    assert d["is_right_hall"] is True


@pytest.mark.parametrize("policy", [LEX, RLEX], ids=["lex", "rlex"])
def test_verdict_does_not_depend_on_insertion_order(policy):
    # Counterexamples are listed in (clause, f, g) order, not in the order
    # the member set happens to iterate.
    gset = generate(policy, BINARY, 8, validate=False)
    shortlex = sorted(gset.member_tuples, key=lambda t: (len(t), t))
    forward = oracle.GeneratedSet(BINARY, 8, policy.id, frozenset(shortlex))
    backward = oracle.GeneratedSet(BINARY, 8, policy.id, frozenset(shortlex[::-1]))
    assert list(forward.member_tuples) != list(backward.member_tuples)
    verdict = verify_hall(forward, policy)
    assert verify_hall(backward, policy) == verdict
    keys = [(c, f.letters, g.letters) for f, g, c in verdict.counterexamples]
    assert keys == sorted(keys)


def test_rlex_set_is_lyndon_and_viennot():
    gset = generate(RLEX, BINARY, 7, validate=False)
    assert all(is_lyndon(w) for w in gset.words())
    verdict = verify_hall(gset, RLEX)
    assert verdict.is_viennot
    assert verdict.is_right_hall and verdict.is_left_hall
    assert not verdict.nyldon_like_ok
    assert verdict.is_factorization


def test_rlex_generate_raises_without_validate_off():
    with pytest.raises(PolicyViolationError):
        generate(RLEX, BINARY, 5)


def test_growth_counterexample_is_concrete():
    gset = generate(RLEX, BINARY, 5, validate=False)
    check = validate_nyldon_like(gset, RLEX)
    assert not check
    f, g, clause = check.counterexamples[0]
    assert clause == "nyldon_like"
    # under rlex, f < fg fails: fg precedes f in reversed lex order
    assert RLEX.compare(f.letters, (f + g).letters) >= 0
    assert (f + g).letters in gset.member_tuples


def test_growth_clause_names_the_least_counterexample():
    # validate_nyldon_like sorts by (f, g), as verify_hall does, so the
    # error generate raises does not follow the member set's hash layout
    gset = generate(RLEX, BINARY, 8, validate=False)
    shortlex = sorted(gset.member_tuples, key=lambda t: (len(t), t))
    backward = oracle.GeneratedSet(BINARY, 8, RLEX.id, frozenset(shortlex[::-1]))
    check = validate_nyldon_like(gset, RLEX)
    assert validate_nyldon_like(backward, RLEX) == check
    keys = [(f.letters, g.letters) for f, g, _ in check.counterexamples]
    assert len(keys) == 121
    assert keys == sorted(keys)
    with pytest.raises(PolicyViolationError, match=r"f=0, g=0000001 "):
        generate(RLEX, BINARY, 8)


def test_factorization_uniqueness_standalone():
    gset = generate(LEX, BINARY, 6)
    assert verify_factorization_property(gset, LEX)
    assert verify_factorization_property(gset, LEX, test_len=4)
    with pytest.raises(ValueError):
        verify_factorization_property(gset, LEX, test_len=7)


def test_factorization_failure_names_witness_and_count():
    # every word of length <= 3 is a member, so 00 = (0)(0) = (00)
    words = (t for n in (1, 2, 3) for t in itertools.product((0, 1), repeat=n))
    gset = oracle.GeneratedSet(BINARY, 3, "lex", frozenset(words))
    check = verify_factorization_property(gset, LEX)
    assert check == FactorizationCheck(False, Word.parse("00"), 2)
    # depth first meets 001 = (0)(0)(1) = (001) before 10, which has no
    # nondecreasing parse; the witness is the shortlex-least of the two
    gset = oracle.GeneratedSet(BINARY, 3, "lex", frozenset({(0,), (1,), (0, 0, 1)}))
    check = verify_factorization_property(gset, LEX)
    assert check == FactorizationCheck(False, Word.parse("10"), 0)


def test_custom_policy_roundtrip():
    register_policy(COLEX)
    gset = generate(COLEX, BINARY, 6, validate=False)
    verdict = verify_hall(gset, COLEX)
    assert verdict.is_factorization  # uniqueness holds for any total order
    assert gset.member_tuples >= {(0,), (1,)}


def test_counts_by_length_lex():
    gset = generate(LEX, BINARY, 7)
    assert gset.counts_by_length() == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18}
