"""Definition-level reference implementations, used as ground truth in tests.

Everything here works straight from the recursive definitions (a word is in
the set iff it admits no nondecreasing factorization into smaller members) and
never touches the fast factorizer or the contraction engine, so those can be
checked against this module independently.

Membership and tail-factorization results are memoized on raw letter tuples in
module-level caches, which makes exhaustive sweeps over all short words cheap:
every substring seen is itself a short word that other sweep entries share.

The one parse-count DP is one step, `_parse_row`: the parses of a word into
an explicit set (nondecreasing under an order, if one is given) that end at
its last letter, from the same rows of its proper prefixes. `parse_count`
folds it over one word, for membership in a generated set. `parse_sweep`
walks every word up to a length depth first with one row per prefix on a
stack, so a word of length t costs O(t) member lookups instead of O(t^2);
unique factorization (`hallsets`), unique decodability (`lazard`) and
`enumerate_members` use it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from .errors import DEFAULT_WORD_BUDGET, InvariantError, check_word_budget
from .order import OrderPolicy, get_policy
from .words import Alphabet, Factorization, Word, _Frozen

if TYPE_CHECKING:
    from pathlib import Path


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
    """Number of such splits; no early exit, used for uniqueness checks."""
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
    raise InvariantError("unreachable: single letters are members")


def nyldon_factorization_bruteforce(word: Word, length_cap: int = 64) -> Factorization:
    """The unique nondecreasing factorization, with uniqueness re-verified.

    Exhausts every candidate split (via counting, so distinct factorizations
    cannot hide behind early exits) and checks that exactly one exists.
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
        raise InvariantError(
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
            raise InvariantError("reconstruction failed despite positive count")
    return Factorization(tuple(factors))


# ---------------------------------------------------------------------------
# Policy-generic generation against an explicit member set


class GeneratedSet(_Frozen):
    """The members up to max_len of the set generated under a policy."""

    __slots__ = ("alphabet", "max_len", "policy_id", "member_tuples")

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
        import json
        from pathlib import Path

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
        import json
        from pathlib import Path

        lines = Path(path).read_text().splitlines()
        header = json.loads(lines[0])
        alphabet = Alphabet(header["alphabet_size"])
        tuples = frozenset(alphabet.parse(line) for line in lines[1:] if line.strip())
        if len(tuples) != header["count"]:
            raise ValueError(
                f"count mismatch: header says {header['count']}, file has {len(tuples)}"
            )
        return cls(alphabet, header["max_len"], header["policy_id"], tuples)


def _parse_row(rows, letters, members, compare):
    """The parses of letters[:t] into `members` that end at letter t, where
    t = len(rows) and rows[i] holds those of letters[:i]: one (last factor,
    number of parses) pair per member letters[i:t] that extends a parse of
    letters[:i], nondecreasingly when `compare` is given. The empty prefix's
    row is [(None, 1)]."""
    t = len(rows)
    row = []
    i = 0
    for parses in rows:
        if parses:
            factor = letters[i:t]
            if factor in members:
                count = 0
                for last, c in parses:
                    if last is None or compare is None or compare(factor, last) >= 0:
                        count += c
                if count:
                    row.append((factor, count))
        i += 1
    return row


def parse_count(
    letters: tuple[int, ...],
    members: frozenset[tuple[int, ...]],
    compare: Callable[[tuple[int, ...], tuple[int, ...]], int] | None = None,
) -> int:
    """The number of ways to write `letters` as a sequence of `members`.

    With a three-way `compare`, only nondecreasing sequences count: each
    factor compares >= 0 against the one before it. Without it this counts
    the parses of `letters` into the code `members`.
    """
    rows = [[(None, 1)]]
    for _ in letters:
        rows.append(_parse_row(rows, letters, members, compare))
    return sum(c for _, c in rows[-1])


def parse_sweep(
    alphabet_size: int,
    max_len: int,
    members: frozenset[tuple[int, ...]],
    compare: Callable[[tuple[int, ...], tuple[int, ...]], int] | None,
    fails: Callable[[int], bool],
    least: bool = False,
) -> list[tuple[tuple[int, ...], int]]:
    """The words of length 1..max_len whose `parse_count` `fails`, each with
    its count, in lex order within a length; the caller checks the budget.

    The walk is depth first with the rows of the word's prefixes on a stack,
    so each word costs one `_parse_row` step. With `least`, only the
    shortlex-least failing word is returned: the walk meets the words of one
    length in lex order, so after a failure of length L it visits only
    shorter words.
    """
    rows = [[(None, 1)]]  # the rows of `word` and its prefixes
    found: list[tuple[tuple[int, ...], int]] = []
    limit = max_len  # the longest word still worth visiting

    def extend(word: tuple[int, ...]) -> None:
        nonlocal limit
        for c in range(alphabet_size):
            child = word + (c,)
            row = _parse_row(rows, child, members, compare)
            count = sum(n for _, n in row)
            if fails(count):
                found.append((child, count))
                if least:  # the siblings after child are greater
                    limit = len(word)
                    return
            if len(child) < limit:
                rows.append(row)
                extend(child)
                rows.pop()

    if max_len >= 1:
        extend(())
    return found[-1:] if least else found


def is_member_bruteforce(word: Word, gset: GeneratedSet) -> bool:
    """Re-derive membership of `word` from the smaller members of `gset`.

    No factor of a parse is longer than the word, and the only one as long is
    the word itself, so the word has no parse into smaller members exactly
    when its parses into the whole set number 1 if `gset` holds it, else 0.
    """
    if word.alphabet != gset.alphabet:
        raise ValueError("word and generated set use different alphabets")
    if len(word) > gset.max_len:
        raise ValueError(f"word longer than the set's max_len {gset.max_len}")
    policy = get_policy(gset.policy_id)
    held = word.letters in gset.member_tuples
    return parse_count(word.letters, gset.member_tuples, policy.compare) == held


def enumerate_members(
    alphabet: Alphabet,
    max_len: int,
    policy: OrderPolicy,
    budget: int | None = DEFAULT_WORD_BUDGET,
) -> GeneratedSet:
    """Generate the set length by length, straight from the definition:
    length n takes one `parse_sweep` to depth n against the shorter members,
    and the words it finds with no parse are the members of length n (each
    shorter word has one: itself, or the parse that excluded it). The sweeps
    visit about s/(s - 1) times the words up to max_len over s letters."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    check_word_budget("enumeration", alphabet.size, max_len, budget)
    members: set[tuple[int, ...]] = {(c,) for c in range(alphabet.size)}
    for n in range(2, max_len + 1):
        found = parse_sweep(
            alphabet.size, n, frozenset(members), policy.compare, lambda c: c == 0
        )
        members.update(word for word, _ in found)
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
    if n < 1:
        raise ValueError("n must be at least 1")
    total = sum(
        _mobius(d) * alphabet_size ** (n // d) for d in range(1, n + 1) if n % d == 0
    )
    if total % n:
        raise InvariantError(f"necklace sum {total} is not divisible by {n}")
    return total // n
