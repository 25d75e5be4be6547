"""Block contraction: unique member conjugate and factorization under a policy.

Words are chains of blocks, initially single letters. At each step every block
equal to the current minimum (under the order policy) is contracted into its
left neighbour, provided that neighbour differs from the minimum; in circular
mode the first block's left neighbour is the last block, so a minimal first
block is appended to the end of the chain. When one block remains it carries
the unique member conjugate. The factorization form works on a straight (not
circular) chain: whenever the leftmost block is minimal among the remaining
blocks it is emitted as the next factor.

One engine serves both forms and the traces: a heap of blocks, each entry
(key, ticket, block, version), with stale entries skipped by version. The key
is the block's sort key under the policy, so heapq compares keys itself:

* lex: the block's slice of the letters, as bytes when every letter is below
  256 (fastfactor's `ComparisonEngine` storage), else as a tuple;
* rlex: the complemented letters (size - 1 - c) plus a closing letter equal
  to the alphabet size, so a proper prefix sorts after the words it begins;
* any other policy: `functools.cmp_to_key(policy.compare)` over tuple slices.

Lex and rlex keys compare in C, with no comparator call.

A phase is the run of pops that share one key, the current minimum. Each of
its blocks is contracted into its left neighbour, whose grown key lies above
the phase key (fg > g in a right Hall set). A grown block is not pushed when
it grows: it joins an insertion-ordered set and is pushed once, with its
final key, when the phase ends. So the heap holds one copy of a grown block
per phase, not one per growth step: a block that absorbs a run of k letters
would otherwise leave k stale copies of itself, and `conjugate` on 1 0^k,
0^k 1 and 1^k 0 at 10^4 letters peaked at 51 MB (tracemalloc) instead of
2.5 MB. A block whose new key is at or below the phase key (possible only
under an order that is not Hall) is pushed at once. The phase boundary is
also where `contraction_trace` and the CLI `trace` command take their
snapshots: the chain as it stands when the popped key changes. In linear
mode a phase first emits the leading run of blocks equal to its key, and
snapshots the rest of the chain; it snapshots again at its end only if it
contracted a block.

Only the leftmost block of a run of equal minimal blocks can contract, so the
engine walks left from a popped block to its run's start. Equal blocks pop
first in, first out: the ticket breaks ties. Blocks are pushed left to right,
and a phase pushes its grown blocks in the order they first grew, so the
block a pop returns is almost always its run's start and the walk is short.
The O(n log n) count depends on this, and the tests check it on long runs.
When equal keys popped in heap order instead, a pop could land anywhere in a
long run and each walk cost O(n): at n = 2000, 1 0^k, 0^k 1 and 1^k 0 took
1.1-1.7 M comparisons in an earlier engine, and about 52 k with the ticket.
Through a counting policy this engine makes 27-34 k there.

Under a policy that assumes the growth property (f < fg; `assume_nyldon_like`,
as lex does), every contraction checks fg > f > g on the keys and raises
PolicyViolationError, with f and g as Words, on failure. Under lex both
clauses hold by construction (f is a proper prefix of fg, and the left
neighbour of a minimal block is not minimal), so the check can fire only
under a custom order that sets the flag.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from functools import cmp_to_key
from itertools import count as _fresh

from .errors import NotPrimitiveError, PolicyViolationError
from .fastfactor import ComparisonEngine
from .order import LEX, OrderPolicy
from .words import Factorization, Word, _Frozen, _unchecked_word, is_primitive
from .words import minimal_period


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


def _sort_key(base: tuple[int, ...], policy: OrderPolicy, size: int):
    """(start, stop) -> the sort key of base[start:stop] under the policy."""
    if policy.id == "lex":
        text = ComparisonEngine(base).letters
        return lambda start, stop: text[start:stop]
    if policy.id == "rlex":
        text = ComparisonEngine(tuple(size - 1 - c for c in base) + (size,)).letters
        closing = text[-1:]
        return lambda start, stop: text[start:stop] + closing
    key = cmp_to_key(policy.compare)
    return lambda start, stop: key(base[start:stop])


class _Node:
    __slots__ = ("start", "stop", "key", "prev", "next", "version")

    def __init__(self, start: int, key):
        self.start = start
        self.stop = start + 1
        self.key = key
        self.prev: _Node | None = None
        self.next: _Node | None = None
        self.version = 0


def _contract(word: Word, policy: OrderPolicy, circular: bool, snapshots=None):
    """The member conjugate (circular) or the factorization (linear) of
    `word`; appends the chain to `snapshots`, if given, once per phase."""
    letters = word.letters
    alphabet = word.alphabet
    n = len(letters)
    base = letters + letters if circular else letters
    key_of = _sort_key(base, policy, alphabet.size)
    check_growth = policy.assume_nyldon_like

    nodes = [_Node(i, key_of(i, i + 1)) for i in range(n)]
    for a, b in zip(nodes, nodes[1:]):
        a.next = b
        b.prev = a
    if circular and n > 1:
        nodes[-1].next = nodes[0]
        nodes[0].prev = nodes[-1]
    head = nodes[0]
    count = n

    ticket = _fresh()
    heap = [(node.key, next(ticket), node, 0) for node in nodes]
    heapify(heap)

    def push(node: _Node) -> None:
        heappush(heap, (node.key, next(ticket), node, node.version))

    def block_word(node: _Node) -> Word:
        return _unchecked_word(base[node.start : node.stop], alphabet)

    def unlink(node: _Node) -> None:
        nonlocal count, head
        node.version = -1
        count -= 1
        if node is head:
            head = node.next
        if node.prev is not None:
            node.prev.next = node.next
        if node.next is not None:
            node.next.prev = node.prev

    def snap() -> None:
        if snapshots is not None and count:
            chain, node = [], head
            for _ in range(count):
                chain.append(block_word(node))
                node = node.next
            snapshots.append(chain)

    factors: list[Word] = []
    grown: dict[_Node, None] = {}  # blocks above the phase key, pushed at its end
    changed = True  # the chain differs from the last snapshot
    remaining = 1 if circular else 0
    while count > remaining:
        for node in grown:
            push(node)
        grown.clear()
        while heap[0][2].version != heap[0][3]:
            heappop(heap)
        phase = heap[0][0]
        if changed:
            snap()
            changed = False
        if not circular and head.key == phase:
            while head is not None and head.key == phase:
                factors.append(block_word(head))
                unlink(head)
            snap()
        while heap and heap[0][0] == phase:
            _, _, node, version = heappop(heap)
            if node.version != version:
                continue
            cur = node
            while cur.prev is not None and cur.prev.key == cur.key:
                cur = cur.prev
            if cur is not node:
                # Only the run's leftmost block can contract (its neighbour is
                # strictly greater); the popped block waits its turn again.
                push(node)
            # A linear chain's head is never at the phase key here: the phase
            # emitted it if it was, and a grown block is longer than the
            # phase's blocks. So `cur` has a left neighbour.
            left = cur.prev
            changed = True
            new = key_of(left.start, left.stop + cur.stop - cur.start)
            if check_growth and not new > left.key > cur.key:
                raise PolicyViolationError(
                    f"contraction under {policy.id} violated fg > f > g",
                    f=block_word(left),
                    g=block_word(cur),
                )
            unlink(cur)
            left.stop += cur.stop - cur.start
            left.key = new
            left.version += 1
            if new > phase:
                grown[left] = None
            else:
                push(left)
    if circular:
        snap()
        return block_word(head)
    return Factorization(tuple(factors), f"{policy.id}:nondecreasing")


# ---------------------------------------------------------------------------
# Public API


def conjugate(word: Word, policy: OrderPolicy = LEX) -> Word:
    """The unique conjugate of a primitive word that lies in the policy's set."""
    if not is_primitive(word):
        raise NotPrimitiveError(word, minimal_period(word))
    return _contract(word, policy, circular=True)


def factorize(word: Word, policy: OrderPolicy = LEX) -> Factorization:
    """Factorization into nondecreasing members of the policy's generated set."""
    return _contract(word, policy, circular=False)


def contraction_trace(
    word: Word, policy: OrderPolicy = LEX, mode: str = "circular"
) -> ContractionTrace:
    """Phase-by-phase snapshots of the contraction, in chain order."""
    snapshots: list[list[Word]] = []
    if mode == "circular":
        if not is_primitive(word):
            raise NotPrimitiveError(word, minimal_period(word))
        conj = _contract(word, policy, True, snapshots)
        return ContractionTrace("circular", snapshots, conj, None)
    if mode == "linear":
        fact = _contract(word, policy, False, snapshots)
        return ContractionTrace("linear", snapshots, None, fact)
    raise ValueError(f"unknown trace mode {mode!r}")
