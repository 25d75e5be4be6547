"""Definition-level reference implementations, used as ground truth in tests.

Everything here works straight from the recursive definitions (a word is in
the set iff it admits no nondecreasing factorization into smaller members) and
never touches the fast factorizer or the contraction engine, so those can be
checked against this module independently.

Membership and tail-factorization results are memoized on raw letter tuples in
module-level caches, which makes exhaustive sweeps over all short words cheap:
every substring seen is itself a short word that other sweep entries share.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .errors import BudgetExceededError, InvariantError
from .order import OrderPolicy, get_policy
from .words import Alphabet, Factorization, Word

DEFAULT_WORD_BUDGET = 2_000_000


@lru_cache(maxsize=None)
def _is_nyldon(letters: tuple[int, ...]) -> bool:
    n = len(letters)
    if n == 1:
        return True
    for k in range(1, n):
        head = letters[:k]
        if _is_nyldon(head) and _tail_factors(letters[k:], head):
            return False
    return True


@lru_cache(maxsize=None)
def _tail_factors(suffix: tuple[int, ...], bound: tuple[int, ...]) -> bool:
    """Can `suffix` split into nondecreasing Nyldon factors, the first >= bound?"""
    m = len(suffix)
    for t in range(1, m + 1):
        head = suffix[:t]
        if head >= bound and _is_nyldon(head):
            if t == m or _tail_factors(suffix[t:], head):
                return True
    return False


@lru_cache(maxsize=None)
def _tail_count(suffix: tuple[int, ...], bound: tuple[int, ...]) -> int:
    """Number of such splits; no early exit, used for uniqueness assertions."""
    m = len(suffix)
    total = 0
    for t in range(1, m + 1):
        head = suffix[:t]
        if head >= bound and _is_nyldon(head):
            total += 1 if t == m else _tail_count(suffix[t:], head)
    return total


def is_nyldon_bruteforce(word: Word) -> bool:
    """Membership by exhausting candidate factorizations (memoized)."""
    return _is_nyldon(word.letters)


def longest_nyldon_suffix(word: Word) -> Word:
    letters = word.letters
    for start in range(len(letters)):
        if _is_nyldon(letters[start:]):
            return word[start:]
    raise AssertionError("unreachable: single letters are members")


def nyldon_factorization_bruteforce(word: Word, length_cap: int = 64) -> Factorization:
    """The unique nondecreasing factorization, with uniqueness re-verified.

    Exhausts every candidate split (via counting, so distinct factorizations
    cannot hide behind early exits) and asserts exactly one exists.
    """
    letters = word.letters
    n = len(letters)
    if n > length_cap:
        raise ValueError(f"brute-force factorization capped at length {length_cap}")
    if _is_nyldon(letters):
        # A member factorizes as itself; the definition guarantees no
        # nondecreasing split into >= 2 members exists.
        return Factorization((word,))
    total = sum(
        _tail_count(letters[k:], letters[:k])
        for k in range(1, n)
        if _is_nyldon(letters[:k])
    )
    if total != 1:
        raise AssertionError(
            f"{word} has {total} nondecreasing factorizations, expected exactly 1"
        )
    factors = []
    suffix = letters
    bound: tuple[int, ...] = ()
    while suffix:
        for t in range(1, len(suffix) + 1):
            head = suffix[:t]
            if head >= bound and _is_nyldon(head):
                if t == len(suffix) or _tail_count(suffix[t:], head) > 0:
                    factors.append(Word(head, word.alphabet))
                    bound = head
                    suffix = suffix[t:]
                    break
        else:
            raise AssertionError("reconstruction failed despite positive count")
    return Factorization(tuple(factors))


# ---------------------------------------------------------------------------
# Policy-generic generation against an explicit member set


@dataclass(frozen=True)
class GeneratedSet:
    """The members up to max_len of the set generated under a policy."""

    alphabet: Alphabet
    max_len: int
    policy_id: str
    member_tuples: frozenset[tuple[int, ...]]

    def __contains__(self, word) -> bool:
        letters = word.letters if isinstance(word, Word) else tuple(word)
        return letters in self.member_tuples

    def __len__(self) -> int:
        return len(self.member_tuples)

    @property
    def members(self) -> frozenset[Word]:
        return frozenset(Word(t, self.alphabet) for t in self.member_tuples)

    def words(self) -> list[Word]:
        """Members in shortlex order."""
        tuples = sorted(self.member_tuples, key=lambda t: (len(t), t))
        return [Word(t, self.alphabet) for t in tuples]

    def counts_by_length(self) -> dict[int, int]:
        counts: dict[int, int] = {n: 0 for n in range(1, self.max_len + 1)}
        for t in self.member_tuples:
            counts[len(t)] += 1
        return counts

    def save(self, path: str | Path) -> None:
        """JSON header line, then one word per line in shortlex order."""
        header = {
            "alphabet_size": self.alphabet.size,
            "max_len": self.max_len,
            "policy_id": self.policy_id,
            "count": len(self.member_tuples),
        }
        lines = [json.dumps(header)]
        lines.extend(str(w) for w in self.words())
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "GeneratedSet":
        lines = Path(path).read_text().splitlines()
        header = json.loads(lines[0])
        alphabet = Alphabet(header["alphabet_size"])
        tuples = frozenset(alphabet.parse(line) for line in lines[1:] if line.strip())
        if len(tuples) != header["count"]:
            raise ValueError(
                f"count mismatch: header says {header['count']}, file has {len(tuples)}"
            )
        return cls(alphabet, header["max_len"], header["policy_id"], tuples)


def _has_member_factorization(
    letters: tuple[int, ...],
    members: frozenset[tuple[int, ...]],
    policy: OrderPolicy,
) -> bool:
    """Does `letters` split into >= 2 smaller members, nondecreasing under policy?"""
    n = len(letters)
    cmp = policy.compare
    memo: dict[tuple[int, int], bool] = {}

    def rest_ok(pos: int, bound_start: int) -> bool:
        key = (pos, bound_start)
        cached = memo.get(key)
        if cached is not None:
            return cached
        bound = letters[bound_start:pos]
        result = False
        for t in range(pos + 1, n + 1):
            factor = letters[pos:t]
            if len(factor) < n and factor in members and cmp(factor, bound) >= 0:
                if t == n or rest_ok(t, pos):
                    result = True
                    break
        memo[key] = result
        return result

    return any(
        letters[:k] in members and rest_ok(k, 0) for k in range(1, n)
    )


def is_member_bruteforce(word: Word, gset: GeneratedSet) -> bool:
    """Re-derive membership of `word` from the smaller members of `gset`."""
    if word.alphabet != gset.alphabet:
        raise ValueError("word and generated set use different alphabets")
    if len(word) > gset.max_len:
        raise ValueError(f"word longer than the set's max_len {gset.max_len}")
    if len(word) == 1:
        return True
    policy = get_policy(gset.policy_id)
    smaller = frozenset(t for t in gset.member_tuples if len(t) < len(word))
    return not _has_member_factorization(word.letters, smaller, policy)


def enumerate_members(
    alphabet: Alphabet,
    max_len: int,
    policy: OrderPolicy,
    budget: int | None = DEFAULT_WORD_BUDGET,
) -> GeneratedSet:
    """Generate the set length by length, straight from the definition."""
    total_words = sum(alphabet.size**n for n in range(1, max_len + 1))
    if budget is not None and total_words > budget:
        raise BudgetExceededError(
            f"enumeration would visit {total_words} words (budget {budget})"
        )
    members: set[tuple[int, ...]] = {(c,) for c in range(alphabet.size)}
    for n in range(2, max_len + 1):
        frozen = frozenset(members)
        for tup in itertools.product(range(alphabet.size), repeat=n):
            if not _has_member_factorization(tup, frozen, policy):
                members.add(tup)
    return GeneratedSet(alphabet, max_len, policy.id, frozenset(members))


def enumerate_nyldon(
    alphabet: Alphabet,
    max_len: int,
    budget: int | None = DEFAULT_WORD_BUDGET,
) -> GeneratedSet:
    return enumerate_members(alphabet, max_len, get_policy("lex"), budget)


# ---------------------------------------------------------------------------
# Counting oracle


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def primitive_necklace_count(alphabet_size: int, n: int) -> int:
    """Number of conjugacy classes of primitive words of length n."""
    total = sum(
        _mobius(d) * alphabet_size ** (n // d) for d in range(1, n + 1) if n % d == 0
    )
    if total % n:
        raise InvariantError(f"necklace sum {total} is not divisible by {n}")
    return total // n


def clear_caches() -> None:
    _is_nyldon.cache_clear()
    _tail_factors.cache_clear()
    _tail_count.cache_clear()
