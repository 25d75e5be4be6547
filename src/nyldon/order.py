"""Total orders on words, each defined here by its sort key.

A policy's key is the package's one comparator: every module compares words
by their keys. `key(letters)` keys one word; `keys(base, size)` gives
(start, stop) -> the key of base[start:stop], for contraction's blocks. Both
default to `cmp_to_key(compare)`. `LEX` (the fast factorizer's order) and
`RLEX` (reversed lex, which gives the Lyndon words) key in C: lex by the
letters, or slices of one word held by `words._storage`; rlex by the
complemented letters (~c, or size - 1 - c) and a closing letter above them
(0, or size), so a proper prefix sorts after the words it begins.
"""

from __future__ import annotations

from functools import cmp_to_key
from operator import invert
from typing import Callable

from .words import _storage


class OrderPolicy:
    """A named total order on letter tuples, given by a three-way `compare`.

    `assume_nyldon_like` marks policies whose generated sets are expected to
    satisfy the growth condition f < fg (true for lex, false for rlex); the
    contraction engine uses it to decide whether to run live growth checks.
    """

    def __init__(
        self,
        policy_id: str,
        compare: Callable[[tuple[int, ...], tuple[int, ...]], int],
        assume_nyldon_like: bool = False,
    ):
        self.id = policy_id
        self.compare = compare
        self.assume_nyldon_like = assume_nyldon_like

    def key(self, letters: tuple[int, ...]):
        return cmp_to_key(self.compare)(letters)

    def keys(self, base: tuple[int, ...], size: int):
        key = cmp_to_key(self.compare)
        return lambda start, stop: key(base[start:stop])

    def __repr__(self) -> str:
        return f"OrderPolicy({self.id!r})"


class _Lex(OrderPolicy):
    def key(self, letters):
        return letters

    def keys(self, base, size):
        text = _storage(size)(base)
        return lambda start, stop: text[start:stop]


class _Rlex(OrderPolicy):
    def key(self, letters):
        return tuple(map(invert, letters)) + (0,)

    def keys(self, base, size):
        store = _storage(size + 1)
        text, closing = store([size - 1 - c for c in base]), store((size,))
        return lambda start, stop: text[start:stop] + closing


def _lex_compare(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    if u == v:
        return 0
    return -1 if u < v else 1


def _rlex_compare(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return -_lex_compare(u, v)


LEX = _Lex("lex", _lex_compare, assume_nyldon_like=True)
RLEX = _Rlex("rlex", _rlex_compare, assume_nyldon_like=False)

_REGISTRY = {p.id: p for p in (LEX, RLEX)}


def get_policy(policy_id: str) -> OrderPolicy:
    try:
        return _REGISTRY[policy_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown policy {policy_id!r} (known: {known})") from None


def register_policy(policy: OrderPolicy) -> None:
    """Make `policy` reachable by its id; an id another policy holds is refused."""
    if _REGISTRY.setdefault(policy.id, policy) is not policy:
        raise ValueError(f"policy id {policy.id!r} is already registered")
