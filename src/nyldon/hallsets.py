"""Generation of policy-defined sets and verification of their Hall properties.

A set generated under a total order contains the letters, and a longer word
exactly when it cannot be written as a nondecreasing product of two or more
smaller members. Generation asks the contraction engine (a word is a member
iff its factorization under the policy is a single factor) and cross-checks a
random sample against the definitional oracle.

Verdict clauses, evaluated over member pairs f, g whose product fg is also a
member (all within the truncation bound):
  right Hall    fg > g
  left Hall     fg < f
  Viennot       both
  growth        f < fg   (the clause sets like the lexicographic one satisfy)
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import melancon, oracle
from .errors import BudgetExceededError, PolicyViolationError
from .order import OrderPolicy, get_policy
from .words import Alphabet, Word

DEFAULT_WORD_BUDGET = 2_000_000


@dataclass(frozen=True)
class NyldonLikeCheck:
    """Growth-clause fragment of a Hall verdict."""

    nyldon_like_ok: bool
    counterexamples: tuple[tuple[Word, Word, str], ...] = ()

    def __bool__(self) -> bool:
        return self.nyldon_like_ok


@dataclass(frozen=True)
class FactorizationCheck:
    ok: bool
    witness: Word | None = None
    count: int | None = None  # factorization count of the witness

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class HallVerdict:
    policy_id: str
    is_factorization: bool
    is_right_hall: bool
    is_left_hall: bool
    is_viennot: bool
    nyldon_like_ok: bool
    counterexamples: tuple[tuple[Word, Word, str], ...] = field(default_factory=tuple)

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


def _check_budget(alphabet: Alphabet, max_len: int, budget: int | None) -> None:
    total = sum(alphabet.size**n for n in range(1, max_len + 1))
    if budget is not None and total > budget:
        raise BudgetExceededError(
            f"sweep would visit {total} words (budget {budget})"
        )


def generate(
    policy: OrderPolicy,
    alphabet: Alphabet,
    max_len: int,
    validate: bool = True,
    cross_check: int = 32,
    budget: int | None = DEFAULT_WORD_BUDGET,
) -> oracle.GeneratedSet:
    """Members up to max_len under the policy.

    A word of length >= 2 joins exactly when contraction under the policy
    yields a single factor; a random sample of the results is re-derived from
    the definitional rule (no nondecreasing factorization into smaller
    members) as a cross-check. With validate=True the growth clause f < fg is
    checked over the whole generated set and a violation raises
    PolicyViolationError, so orders that do not satisfy it (such as the
    reversed lexicographic one) need validate=False.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    _check_budget(alphabet, max_len, budget)
    members: set[tuple[int, ...]] = {(c,) for c in range(alphabet.size)}
    for n in range(2, max_len + 1):
        for tup in itertools.product(range(alphabet.size), repeat=n):
            if len(melancon.factorize(Word(tup, alphabet), policy)) == 1:
                members.add(tup)
    gset = oracle.GeneratedSet(alphabet, max_len, policy.id, frozenset(members))

    if cross_check:
        rng = random.Random(0x5E7)
        pool = list(itertools.chain.from_iterable(
            itertools.product(range(alphabet.size), repeat=n)
            for n in range(1, max_len + 1)
        ))
        for tup in rng.sample(pool, min(cross_check, len(pool))):
            word = Word(tup, alphabet)
            if oracle.is_member_bruteforce(word, gset) != (tup in members):
                raise AssertionError(
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
    """Check f < fg for every pair of members whose product is a member."""
    policy = policy or get_policy(gset.policy_id)
    members = gset.member_tuples
    violations: list[tuple[Word, Word, str]] = []
    for fg in members:
        if len(fg) < 2:
            continue
        for k in range(1, len(fg)):
            f, g = fg[:k], fg[k:]
            if f in members and g in members and policy.compare(f, fg) >= 0:
                violations.append(
                    (Word(f, gset.alphabet), Word(g, gset.alphabet), "nyldon_like")
                )
    return NyldonLikeCheck(not violations, tuple(violations))


def verify_factorization_property(
    gset: oracle.GeneratedSet,
    policy: OrderPolicy | None = None,
    test_len: int | None = None,
    budget: int | None = DEFAULT_WORD_BUDGET,
) -> FactorizationCheck:
    """Every word of length <= test_len has exactly one nondecreasing
    factorization into members (a lone member is its own one factor)."""
    test_len = gset.max_len if test_len is None else test_len
    if test_len > gset.max_len:
        raise ValueError("test_len exceeds the set's max_len")
    _check_budget(gset.alphabet, test_len, budget)
    policy = policy or get_policy(gset.policy_id)
    cmp = policy.compare
    members = gset.member_tuples

    def count_factorizations(letters: tuple[int, ...]) -> int:
        n = len(letters)
        memo: dict[tuple[int, int], int] = {}

        def rest(pos: int, bound_start: int) -> int:
            if pos == n:
                return 1
            key = (pos, bound_start)
            cached = memo.get(key)
            if cached is not None:
                return cached
            bound = letters[bound_start:pos]
            total = 0
            for t in range(pos + 1, n + 1):
                factor = letters[pos:t]
                if factor in members and cmp(factor, bound) >= 0:
                    total += rest(t, pos)
            memo[key] = total
            return total

        # The first factor has no predecessor to compare against.
        total = 0
        for t in range(1, n + 1):
            if letters[:t] in members:
                total += rest(t, 0)
        return total

    for n in range(1, test_len + 1):
        for tup in itertools.product(range(gset.alphabet.size), repeat=n):
            count = count_factorizations(tup)
            if count != 1:
                return FactorizationCheck(False, Word(tup, gset.alphabet), count)
    return FactorizationCheck(True)


def verify_hall(
    gset: oracle.GeneratedSet,
    policy: OrderPolicy | None = None,
    test_len: int | None = None,
) -> HallVerdict:
    """Evaluate all Hall clauses over member pairs with member product."""
    policy = policy or get_policy(gset.policy_id)
    members = gset.member_tuples
    counterexamples: list[tuple[Word, Word, str]] = []
    right = left = growth = True
    for fg in members:
        if len(fg) < 2:
            continue
        for k in range(1, len(fg)):
            f, g = fg[:k], fg[k:]
            if f not in members or g not in members:
                continue
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
