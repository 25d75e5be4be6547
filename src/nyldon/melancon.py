"""Block contraction: unique member conjugate and factorization under a policy.

Words are chains of blocks, initially single letters. At each step every block
equal to the current minimum (under the order policy) is contracted into its
left neighbour, provided that neighbour differs from the minimum; in circular
mode the first block's left neighbour is the last block, so a minimal first
block is appended to the end of the chain. When one block remains it carries
the unique member conjugate. The factorization form works on a straight (not
circular) chain: whenever the leftmost block is minimal among the remaining
blocks it is emitted as the next factor.

Two engines implement this:

* a phase engine that fixes the current minimum, sweeps left to right until no
  copy of it remains, and snapshots the chain after every phase (these
  snapshots are what `contraction_trace` and the CLI `trace` command show);
* a priority-queue engine (stale entries skipped by version) that runs in
  O(n log n) policy comparisons and is the default for `conjugate` and
  `factorize`.

Both contract only a minimal block into a strictly greater left neighbour, so
their end results coincide; tests assert this differentially.

For policies expected to generate sets with the growth property (f < fg, as
lex does), every contraction optionally checks fg > f > g live and raises
PolicyViolationError on failure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count as _fresh

from .errors import InvariantError, NotPrimitiveError, PolicyViolationError
from .fastfactor import ComparisonEngine
from .order import LEX, OrderPolicy
from .words import Factorization, Word, is_primitive, minimal_period

# Lex compares on bases of at least this many letters go through fastfactor's
# bounded comparator, which slices only min(|u|, |v|) letters. Shorter bases
# compare tuple slices through the policy, which spares a bytes encoding per
# word in scans over thousands of short words. Both sides were measured: bytes
# at every length slowed set generation over short words, and policy slices at
# every length slowed contraction of 1 0^k at 10^3 letters.
_ENGINE_MIN = 64


def _range_comparator(base: tuple[int, ...], policy: OrderPolicy):
    """Three-way compare of (start, length) ranges of `base` under the policy."""
    if policy.id == "lex" and len(base) >= _ENGINE_MIN:
        engine_compare = ComparisonEngine(base).compare

        def compare(s1: int, l1: int, s2: int, l2: int) -> int:
            return engine_compare(s1, s1 + l1, s2, s2 + l2)

        return compare

    cmp = policy.compare

    def compare(s1: int, l1: int, s2: int, l2: int) -> int:
        return cmp(base[s1 : s1 + l1], base[s2 : s2 + l2])

    return compare


@dataclass
class ContractionTrace:
    """Chain snapshots, one per phase; indexable like a plain list."""

    mode: str  # "circular" or "linear"
    snapshots: list[list[Word]]
    conjugate: Word | None = None
    factorization: Factorization | None = None

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self):
        return iter(self.snapshots)

    def __getitem__(self, index):
        return self.snapshots[index]


# ---------------------------------------------------------------------------
# Phase engine


def _check_growth(rc, left: tuple[int, int], right: tuple[int, int], policy) -> None:
    ls, ll = left
    rs, rl = right
    if rc(ls, ll + rl, ls, ll) <= 0 or rc(ls, ll, rs, rl) <= 0:
        raise PolicyViolationError(
            f"contraction under {policy.id} violated fg > f > g", f=left, g=right
        )


def _phase_run(
    word: Word,
    policy: OrderPolicy,
    circular: bool,
    check_growth: bool,
    want_snapshots: bool,
):
    letters = word.letters
    alphabet = word.alphabet
    n = len(letters)
    base = letters + letters if circular else letters
    rc = _range_comparator(base, policy)

    def word_of(block: tuple[int, int]) -> tuple[int, ...]:
        s, l = block
        return base[s : s + l]

    blocks: list[tuple[int, int]] = [(i, 1) for i in range(n)]
    snapshots: list[list[Word]] = []
    factors: list[Word] = []

    def snap() -> None:
        if want_snapshots and blocks:
            snapshots.append([Word(word_of(b), alphabet) for b in blocks])

    def contract(left_idx: int, idx: int) -> None:
        ls, ll = blocks[left_idx]
        if check_growth:
            _check_growth(rc, blocks[left_idx], blocks[idx], policy)
        blocks[left_idx] = (ls, ll + blocks[idx][1])
        del blocks[idx]

    def chain_min() -> tuple[int, ...]:
        best = blocks[0]
        for b in blocks[1:]:
            if rc(b[0], b[1], best[0], best[1]) < 0:
                best = b
        return word_of(best)

    snap()

    if circular:
        while len(blocks) > 1:
            min_word = chain_min()
            while True:
                contracted = False
                p = 0
                while p < len(blocks) and len(blocks) > 1:
                    if word_of(blocks[p]) == min_word:
                        left_idx = p - 1 if p > 0 else len(blocks) - 1
                        if word_of(blocks[left_idx]) != min_word:
                            contract(left_idx, p)
                            contracted = True
                            continue  # the shifted-in block lands at p
                    p += 1
                if len(blocks) == 1 or all(word_of(b) != min_word for b in blocks):
                    break
                if not contracted:
                    # Every block equals the minimum: the word is a proper power.
                    raise NotPrimitiveError(word, minimal_period(word))
            snap()
        return snapshots, Word(word_of(blocks[0]), alphabet), None

    while blocks:
        min_word = chain_min()
        if word_of(blocks[0]) == min_word:
            while blocks and word_of(blocks[0]) == min_word:
                factors.append(Word(word_of(blocks.pop(0)), alphabet))
            snap()
        else:
            p = 1
            while p < len(blocks):
                if word_of(blocks[p]) == min_word and word_of(blocks[p - 1]) != min_word:
                    contract(p - 1, p)
                else:
                    p += 1
            if any(word_of(b) == min_word for b in blocks):
                raise InvariantError("a linear phase left a minimal block uncontracted")
            snap()
    factorization = Factorization(tuple(factors), f"{policy.id}:nondecreasing")
    return snapshots, None, factorization


# ---------------------------------------------------------------------------
# Priority-queue engine


class _Node:
    __slots__ = ("start", "length", "prev", "next", "version", "alive")

    def __init__(self, start: int):
        self.start = start
        self.length = 1
        self.prev: _Node | None = None
        self.next: _Node | None = None
        self.version = 0
        self.alive = True


def _pq_run(word: Word, policy: OrderPolicy, circular: bool, check_growth: bool):
    letters = word.letters
    alphabet = word.alphabet
    n = len(letters)
    base = letters + letters if circular else letters
    rc = _range_comparator(base, policy)

    class _Key:
        __slots__ = ("s", "l")

        def __init__(self, s: int, l: int):
            self.s = s
            self.l = l

        def __lt__(self, other: "_Key") -> bool:
            return rc(self.s, self.l, other.s, other.l) < 0

    nodes = [_Node(i) for i in range(n)]
    for a, b in zip(nodes, nodes[1:]):
        a.next = b
        b.prev = a
    if circular and n > 1:
        nodes[-1].next = nodes[0]
        nodes[0].prev = nodes[-1]
    head = nodes[0]
    count = n

    ticket = _fresh()
    heap: list = []

    def push(node: _Node) -> None:
        heapq.heappush(heap, (_Key(node.start, node.length), next(ticket), node, node.version))

    for node in nodes:
        push(node)

    def pop_valid() -> _Node:
        while True:
            _, _, node, version = heapq.heappop(heap)
            if node.alive and node.version == version:
                return node

    def unlink(node: _Node) -> None:
        nonlocal count
        node.alive = False
        count -= 1
        if node.prev is not None:
            node.prev.next = node.next
        if node.next is not None:
            node.next.prev = node.prev

    def contract(left: _Node, node: _Node) -> None:
        if check_growth:
            _check_growth(
                rc, (left.start, left.length), (node.start, node.length), policy
            )
        unlink(node)
        left.length += node.length
        left.version += 1
        push(left)

    def walk_to_run_start(node: _Node) -> _Node:
        """Leftmost block of the equal-value run containing `node`."""
        cur = node
        steps = 0
        while cur.prev is not None and rc(
            cur.prev.start, cur.prev.length, cur.start, cur.length
        ) == 0:
            cur = cur.prev
            steps += 1
            if steps > count:
                raise NotPrimitiveError(word, minimal_period(word))
        return cur

    if circular:
        while count > 1:
            node = pop_valid()
            cur = walk_to_run_start(node)
            if cur is not node:
                # Only the run's leftmost block can contract (its neighbour is
                # strictly greater); the popped block stays and waits its turn.
                push(node)
            contract(cur.prev, cur)
        last = pop_valid()
        return Word(base[last.start : last.start + last.length], alphabet), None

    factors: list[Word] = []
    while count > 0:
        node = pop_valid()
        if node is head:
            unlink(node)
            head = node.next
            factors.append(Word(base[node.start : node.start + node.length], alphabet))
            continue
        cur = walk_to_run_start(node)
        if cur is not node:
            push(node)  # its entry was consumed but only the run start acts
        if cur.prev is None:
            # cur is the head and shares the minimal value: emit it.
            unlink(cur)
            head = cur.next
            factors.append(Word(base[cur.start : cur.start + cur.length], alphabet))
            continue
        contract(cur.prev, cur)
    return None, Factorization(tuple(factors), f"{policy.id}:nondecreasing")


# ---------------------------------------------------------------------------
# Public API


def conjugate(
    word: Word,
    policy: OrderPolicy = LEX,
    variant: str = "pq",
    check_growth: bool | None = None,
) -> Word:
    """The unique conjugate of a primitive word that lies in the policy's set."""
    if not is_primitive(word):
        raise NotPrimitiveError(word, minimal_period(word))
    growth = policy.assume_nyldon_like if check_growth is None else check_growth
    if variant == "pq":
        result, _ = _pq_run(word, policy, circular=True, check_growth=growth)
        return result
    if variant == "phases":
        _, result, _ = _phase_run(word, policy, True, growth, want_snapshots=False)
        return result
    raise ValueError(f"unknown variant {variant!r}")


def factorize(
    word: Word,
    policy: OrderPolicy = LEX,
    variant: str = "pq",
    check_growth: bool | None = None,
) -> Factorization:
    """Factorization into nondecreasing members of the policy's generated set."""
    growth = policy.assume_nyldon_like if check_growth is None else check_growth
    if variant == "pq":
        _, result = _pq_run(word, policy, circular=False, check_growth=growth)
        return result
    if variant == "phases":
        _, _, result = _phase_run(word, policy, False, growth, want_snapshots=False)
        return result
    raise ValueError(f"unknown variant {variant!r}")


def contraction_trace(
    word: Word,
    policy: OrderPolicy = LEX,
    mode: str = "circular",
    check_growth: bool | None = None,
) -> ContractionTrace:
    """Phase-by-phase snapshots of the contraction, in chain order."""
    growth = policy.assume_nyldon_like if check_growth is None else check_growth
    if mode == "circular":
        if not is_primitive(word):
            raise NotPrimitiveError(word, minimal_period(word))
        snapshots, conj, _ = _phase_run(word, policy, True, growth, True)
        return ContractionTrace("circular", snapshots, conjugate=conj)
    if mode == "linear":
        snapshots, _, fact = _phase_run(word, policy, False, growth, True)
        return ContractionTrace("linear", snapshots, factorization=fact)
    raise ValueError(f"unknown trace mode {mode!r}")
