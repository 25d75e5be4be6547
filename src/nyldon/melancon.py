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
  O(n log n) policy comparisons.

`conjugate` and `factorize` pick the engine by length: the phase engine below
`_PHASE_MAX` letters, the priority queue from there. The phase engine has
little per-call overhead, but every phase scans the whole chain, and a word
with many distinct letters needs a phase per letter, so its cost grows as the
number of phases times the chain length. The heap engine costs a heap push,
pop and key per block, but stays O(n log n). The measurements behind the
cutoff are next to `_PHASE_MAX`. A `variant` of "pq" or "phases" forces one.

Only the leftmost block of a run of equal minimal blocks can contract, so the
priority-queue engine walks left from a popped block to its run's start. Equal
blocks pop first in, first out: each heap key carries a ticket that breaks
ties. Blocks are pushed left to right and a block is pushed again as soon as
it grows, so the block a pop returns is almost always its run's start and the
walk is short. The O(n log n) count depends on this, and the tests check it on
long runs. When equal keys popped in heap order instead, a pop could land
anywhere in a long run and each walk cost O(n): at n = 2000, 1 0^k, 0^k 1 and
1^k 0 took 1.1-1.7 M comparisons, against about 52 k with the ticket (random
words: about 51 k).

Both contract only a minimal block into a strictly greater left neighbour, so
their end results coincide; tests assert this differentially, on both sides
of the cutoff.

Under a policy that assumes the growth property (f < fg; `assume_nyldon_like`,
as lex does), every contraction checks fg > f > g live and raises
PolicyViolationError on failure.
"""

from __future__ import annotations

import heapq
from functools import cmp_to_key
from itertools import count as _fresh

from .errors import InvariantError, NotPrimitiveError, PolicyViolationError
from .fastfactor import ComparisonEngine
from .order import LEX, OrderPolicy
from .words import Factorization, Word, _Frozen, _unchecked_word, is_primitive
from .words import minimal_period

# Lex compares on bases of at least this many letters go through fastfactor's
# bounded comparator, which slices only min(|u|, |v|) letters; shorter bases
# compare tuple slices through the policy. Measured on 2 cores with Python
# 3.11: policy slices at every length made the 18 contractions of 10^3-letter
# words in the factor-long benchmark take 1.04 s instead of 0.46 s (1 0^k
# alone 163 ms instead of about 20 ms), because a policy copies a merged
# block whole on every compare. Below 64 letters the two were within noise
# (745 conjugates of binary words of at most 12 letters: 100 ms either way).
_ENGINE_MIN = 64

# `conjugate` and `factorize` run the phase engine on words shorter than this,
# the priority queue on longer ones. Measured on 2 cores with Python 3.11,
# conjugate + factorize in ms, heap / phase (best of 3 to 7):
#
#   binary, the benchmark's nine families   random        the other eight
#     n = 100                                 3.7 / 1.7     2.6-3.7 / 0.7-1.6
#     n = 1000                                 32 / 38       30-51 / 6-17
#     n = 2000                                127 / 128      93-137 / 13-40
#     n = 4000                                288 / 441     230-334 / 41-137
#     n = 10^4                                783 / 2307    657-967 / 116-692
#
#   random words over k letters   n = 16       n = 32       n = 64       n = 256
#     k = 2                       0.42 / 0.19  0.59 / 0.26  1.44 / 0.57  10.9 / 5.6
#     k = 16                      0.26 / 0.23  0.61 / 0.65  1.32 / 2.92   9.4 / 20.7
#     k = 256                     0.44 / 0.53  0.62 / 1.03  1.42 / 3.50   6.4 / 56.2
#     k = 65536                   0.46 / 0.55  1.09 / 1.43  1.49 / 6.97  12.0 / 89.4
#
# Binary words alone would put the cutoff between 1000 and 2000 letters
# (random words; the other families favour the phase engine even at 10^4).
# Each distinct letter costs the phase engine a phase over the whole chain,
# so on alphabets of 16 letters or more it falls behind from 12 to 24
# letters and is 2-9 times slower at 256. Below 32 letters it is about twice
# as fast on binary words and at most 1.7 times slower (under half a
# millisecond) on every alphabet measured; the sweep's words (at most 12
# letters) and the CLI's short words fall below it.
_PHASE_MAX = 32

# The policies the bounded comparator serves, with the sign of its result:
# rlex is lex reversed. Any other id (a custom order, CountingPolicy) compares
# slices through its policy.
_ENGINE_SIGN = {"lex": 1, "rlex": -1}


def _range_comparator(base: tuple[int, ...], policy: OrderPolicy):
    """Three-way compare of (start, length) ranges of `base` under the policy."""
    sign = _ENGINE_SIGN.get(policy.id)
    if sign is not None and len(base) >= _ENGINE_MIN:
        engine_compare = ComparisonEngine(base).compare

        def compare(s1: int, l1: int, s2: int, l2: int) -> int:
            return sign * engine_compare(s1, s1 + l1, s2, s2 + l2)

        return compare

    cmp = policy.compare

    def compare(s1: int, l1: int, s2: int, l2: int) -> int:
        return cmp(base[s1 : s1 + l1], base[s2 : s2 + l2])

    return compare


class ContractionTrace(_Frozen):
    """Chain snapshots, one per phase; indexable like a plain list.

    `mode` is "circular" or "linear"; a circular trace carries its
    `conjugate` (and `factorization` None), a linear one its `factorization`
    (and `conjugate` None).
    """

    __slots__ = ("mode", "snapshots", "conjugate", "factorization")

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
    want_snapshots: bool,
):
    check_growth = policy.assume_nyldon_like
    letters = word.letters
    alphabet = word.alphabet
    n = len(letters)
    base = letters + letters if circular else letters
    rc = _range_comparator(base, policy)

    def word_of(block: tuple[int, int]) -> tuple[int, ...]:
        s, l = block
        return base[s : s + l]

    def block_word(block: tuple[int, int]) -> Word:
        return _unchecked_word(word_of(block), alphabet)

    blocks: list[tuple[int, int]] = [(i, 1) for i in range(n)]
    snapshots: list[list[Word]] = []
    factors: list[Word] = []

    def snap() -> None:
        if want_snapshots and blocks:
            snapshots.append([block_word(b) for b in blocks])

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
        return snapshots, block_word(blocks[0]), None

    while blocks:
        min_word = chain_min()
        if word_of(blocks[0]) == min_word:
            while blocks and word_of(blocks[0]) == min_word:
                factors.append(block_word(blocks.pop(0)))
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


def _pq_run(word: Word, policy: OrderPolicy, circular: bool):
    check_growth = policy.assume_nyldon_like
    letters = word.letters
    alphabet = word.alphabet
    n = len(letters)
    base = letters + letters if circular else letters
    rc = _range_comparator(base, policy)

    nodes = [_Node(i) for i in range(n)]
    for a, b in zip(nodes, nodes[1:]):
        a.next = b
        b.prev = a
    if circular and n > 1:
        nodes[-1].next = nodes[0]
        nodes[0].prev = nodes[-1]
    head = nodes[0]
    count = n

    # Heap entries are (start, length, ticket, node, version) tuples under
    # `order`, wrapped by functools' C key type, so a run builds no key class
    # and a push runs no Python __init__. The ticket makes equal blocks pop
    # first in, first out (module docstring).
    def order(a, b) -> int:
        return rc(a[0], a[1], b[0], b[1]) or a[2] - b[2]

    key = cmp_to_key(order)
    ticket = _fresh()
    heap: list = []

    def push(node: _Node) -> None:
        entry = (node.start, node.length, next(ticket), node, node.version)
        heapq.heappush(heap, key(entry))

    for node in nodes:
        push(node)

    def pop_valid() -> _Node:
        while True:
            _, _, _, node, version = heapq.heappop(heap).obj
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

    def block_word(node: _Node) -> Word:
        return _unchecked_word(base[node.start : node.start + node.length], alphabet)

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
        return block_word(last), None

    factors: list[Word] = []
    while count > 0:
        node = pop_valid()
        if node is head:
            unlink(node)
            head = node.next
            factors.append(block_word(node))
            continue
        cur = walk_to_run_start(node)
        if cur is not node:
            push(node)  # its entry was consumed but only the run start acts
        if cur.prev is None:
            # cur is the head and shares the minimal value: emit it.
            unlink(cur)
            head = cur.next
            factors.append(block_word(cur))
            continue
        contract(cur.prev, cur)
    return None, Factorization(tuple(factors), f"{policy.id}:nondecreasing")


# ---------------------------------------------------------------------------
# Public API


def _engine(word: Word, variant: str | None) -> str:
    if variant is None:
        return "phases" if len(word) < _PHASE_MAX else "pq"
    return variant


def conjugate(word: Word, policy: OrderPolicy = LEX, variant: str | None = None) -> Word:
    """The unique conjugate of a primitive word that lies in the policy's set.

    `variant` None picks the engine by length (the phase engine below
    `_PHASE_MAX` letters, the priority queue from there); "pq" or "phases"
    forces one.
    """
    if not is_primitive(word):
        raise NotPrimitiveError(word, minimal_period(word))
    variant = _engine(word, variant)
    if variant == "pq":
        result, _ = _pq_run(word, policy, circular=True)
        return result
    if variant == "phases":
        _, result, _ = _phase_run(word, policy, True, want_snapshots=False)
        return result
    raise ValueError(f"unknown variant {variant!r}")


def factorize(
    word: Word, policy: OrderPolicy = LEX, variant: str | None = None
) -> Factorization:
    """Factorization into nondecreasing members of the policy's generated set;
    `variant` as for `conjugate`."""
    variant = _engine(word, variant)
    if variant == "pq":
        _, result = _pq_run(word, policy, circular=False)
        return result
    if variant == "phases":
        _, _, result = _phase_run(word, policy, False, want_snapshots=False)
        return result
    raise ValueError(f"unknown variant {variant!r}")


def contraction_trace(
    word: Word, policy: OrderPolicy = LEX, mode: str = "circular"
) -> ContractionTrace:
    """Phase-by-phase snapshots of the contraction, in chain order."""
    if mode == "circular":
        if not is_primitive(word):
            raise NotPrimitiveError(word, minimal_period(word))
        snapshots, conj, _ = _phase_run(word, policy, True, True)
        return ContractionTrace("circular", snapshots, conj, None)
    if mode == "linear":
        snapshots, _, fact = _phase_run(word, policy, False, True)
        return ContractionTrace("linear", snapshots, None, fact)
    raise ValueError(f"unknown trace mode {mode!r}")
