"""Generation of policy-defined sets and verification of their Hall properties.

A set generated under a total order contains the letters, and a longer word
exactly when it cannot be written as a nondecreasing product of two or more
smaller members. The Nyldon words and every Nyldon-like set form a right Hall
set (the paper), so each primitive conjugacy class holds exactly one member
(Schützenberger) and generation runs one circular contraction per Lyndon
word. A sample re-derived from the definitional oracle, and verify_hall's
unique-factorization check, catch an order whose set is not a factorization.

Verdict clauses, evaluated over member pairs f, g whose product fg is also a
member (all within the truncation bound):
  right Hall    fg > g
  left Hall     fg < f
  Viennot       both
  growth        f < fg   (the clause sets like the lexicographic one satisfy)
"""

from __future__ import annotations

import random

from . import melancon, oracle
from .errors import DEFAULT_WORD_BUDGET, check_word_budget
from .errors import InvariantError, PolicyViolationError
from .order import OrderPolicy, get_policy
from .words import Alphabet, Word, _Frozen, lyndon_words


class NyldonLikeCheck(_Frozen):
    """Growth-clause fragment of a Hall verdict."""

    __slots__ = ("nyldon_like_ok", "counterexamples")

    def __bool__(self) -> bool:
        return self.nyldon_like_ok


class FactorizationCheck(_Frozen):
    """When not ok, `witness` has `count` nondecreasing factorizations."""

    __slots__ = ("ok", "witness", "count")

    def __bool__(self) -> bool:
        return self.ok


class HallVerdict(_Frozen):
    """The clause verdicts; `counterexamples` holds (f, g, clause) triples."""

    __slots__ = ("policy_id", "is_factorization", "is_right_hall", "is_left_hall",
                 "is_viennot", "nyldon_like_ok", "counterexamples")

    def to_dict(self) -> dict:
        return {
            "policy_id": self.policy_id,
            "is_factorization": self.is_factorization,
            "is_right_hall": self.is_right_hall,
            "is_left_hall": self.is_left_hall,
            "is_viennot": self.is_viennot,
            "nyldon_like_ok": self.nyldon_like_ok,
            "counterexamples": [
                {"f": str(f), "g": str(g), "violated_clause": clause}
                for f, g, clause in self.counterexamples
            ],
        }


def _word_at(alphabet: Alphabet, index: int) -> tuple[int, ...]:
    """The index-th word (from 0) of length >= 1 in shortlex order."""
    n, size = 1, alphabet.size
    while index >= size**n:
        index -= size**n
        n += 1
    return tuple(index // size**i % size for i in reversed(range(n)))


def _member_pairs(members: frozenset[tuple[int, ...]]):
    """Every (f, g, fg) with f, g and their product fg all members."""
    for fg in members:
        for k in range(1, len(fg)):
            f, g = fg[:k], fg[k:]
            if f in members and g in members:
                yield f, g, fg


def generate(
    policy: OrderPolicy,
    alphabet: Alphabet,
    max_len: int,
    validate: bool = True,
    cross_check: int = 32,
    budget: int | None = DEFAULT_WORD_BUDGET,
) -> oracle.GeneratedSet:
    """Members up to max_len under the policy.

    Beyond the letters, each member is the circular contraction of one Lyndon
    word of length 2..max_len (one member per primitive class). `cross_check`
    words drawn from all words up to max_len, the words the budget counts, are
    re-derived from the definitional rule; a disagreement (an order whose set
    is not a factorization) raises InvariantError. With validate=True the
    growth clause f < fg is checked over the whole generated set and a
    violation raises PolicyViolationError, so orders that do not satisfy it
    (such as the reversed lexicographic one) need validate=False.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    total = check_word_budget("sweep", alphabet.size, max_len, budget)
    reps = (w for w in lyndon_words(alphabet, max_len) if len(w) >= 2)
    found = (melancon.conjugate(w, policy).letters for w in reps)
    # Added in shortlex order, as a word-by-word scan adds them, so the set
    # iterates in that order.
    members = {(c,) for c in range(alphabet.size)}
    members.update(sorted(found, key=lambda t: (len(t), t)))
    gset = oracle.GeneratedSet(alphabet, max_len, policy.id, frozenset(members))

    if cross_check:
        rng = random.Random(0x5E7)
        for index in rng.sample(range(total), min(cross_check, total)):
            word = Word(_word_at(alphabet, index), alphabet)
            if oracle.is_member_bruteforce(word, gset) != (word.letters in members):
                raise InvariantError(
                    f"contraction disagrees with the definitional rule on {word}"
                )

    if validate:
        check = validate_nyldon_like(gset, policy)
        if not check:
            f, g, _ = check.counterexamples[0]
            raise PolicyViolationError(
                f"policy {policy.id}: growth clause fails for f={f}, g={g}"
                " (f < fg does not hold)",
                f=f,
                g=g,
            )
    return gset


def validate_nyldon_like(
    gset: oracle.GeneratedSet, policy: OrderPolicy | None = None
) -> NyldonLikeCheck:
    """Check f < fg for every pair of members whose product is a member;
    counterexamples are sorted by (f, g), as `verify_hall` sorts its own."""
    policy = policy or get_policy(gset.policy_id)
    pairs = sorted(
        (f, g)
        for f, g, fg in _member_pairs(gset.member_tuples)
        if policy.compare(f, fg) >= 0
    )
    violations = tuple(
        (Word(f, gset.alphabet), Word(g, gset.alphabet), "nyldon_like")
        for f, g in pairs
    )
    return NyldonLikeCheck(not violations, violations)


def verify_factorization_property(
    gset: oracle.GeneratedSet,
    policy: OrderPolicy | None = None,
    test_len: int | None = None,
    budget: int | None = DEFAULT_WORD_BUDGET,
) -> FactorizationCheck:
    """Every word of length <= test_len has exactly one nondecreasing
    factorization into members (a lone member is its own one factor); the
    witness of a failure is the shortlex-least word without one.

    One `oracle.parse_sweep` visits every word once, at O(t) member lookups
    for a word of length t."""
    test_len = gset.max_len if test_len is None else test_len
    if test_len > gset.max_len:
        raise ValueError("test_len exceeds the set's max_len")
    check_word_budget("sweep", gset.alphabet.size, test_len, budget)
    policy = policy or get_policy(gset.policy_id)
    for tup, count in oracle.parse_sweep(
        gset.alphabet.size, test_len, gset.member_tuples, policy.compare,
        lambda count: count != 1, least=True,
    ):
        return FactorizationCheck(False, Word(tup, gset.alphabet), count)
    return FactorizationCheck(True, None, None)


def verify_hall(
    gset: oracle.GeneratedSet,
    policy: OrderPolicy | None = None,
    test_len: int | None = None,
) -> HallVerdict:
    """Evaluate all Hall clauses over member pairs with member product;
    counterexamples are sorted by (clause, f, g)."""
    policy = policy or get_policy(gset.policy_id)
    counterexamples: list[tuple[Word, Word, str]] = []
    right = left = growth = True
    for f, g, fg in _member_pairs(gset.member_tuples):
        wf, wg = Word(f, gset.alphabet), Word(g, gset.alphabet)
        if policy.compare(fg, g) <= 0:
            right = False
            counterexamples.append((wf, wg, "right_hall"))
        if policy.compare(fg, f) >= 0:
            left = False
            counterexamples.append((wf, wg, "left_hall"))
        if policy.compare(f, fg) >= 0:
            growth = False
            counterexamples.append((wf, wg, "nyldon_like"))
    # sorted, so the list does not follow the member set's hash layout
    counterexamples.sort(key=lambda c: (c[2], c[0].letters, c[1].letters))
    factorization = verify_factorization_property(gset, policy, test_len)
    return HallVerdict(
        policy_id=policy.id,
        is_factorization=factorization.ok,
        is_right_hall=right,
        is_left_hall=left,
        is_viennot=right and left,
        nyldon_like_ok=growth,
        counterexamples=tuple(counterexamples),
    )
