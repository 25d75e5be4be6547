"""Total orders on words, pluggable into the contraction and generation code.

A policy compares raw letter tuples (the cheap universal currency) and must be
a total order on all words over the alphabet. `lex` is the order the fast
factorizer assumes; `rlex` (reversed lex) is the orientation under which the
Lyndon words arise from the same machinery.
"""

from __future__ import annotations

from typing import Callable


class OrderPolicy:
    """A named total order on letter tuples.

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

    def __repr__(self) -> str:
        return f"OrderPolicy({self.id!r})"

    def key(self, letters: tuple[int, ...]):
        """A sort key consistent with the policy, for heaps and sorting."""
        return _PolicyKey(self, letters)


class _PolicyKey:
    __slots__ = ("policy", "letters")

    def __init__(self, policy: OrderPolicy, letters: tuple[int, ...]):
        self.policy = policy
        self.letters = letters

    def __lt__(self, other: "_PolicyKey") -> bool:
        return self.policy.compare(self.letters, other.letters) < 0

    def __eq__(self, other) -> bool:
        return self.policy.compare(self.letters, other.letters) == 0


def _lex_compare(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    if u == v:
        return 0
    return -1 if u < v else 1


def _rlex_compare(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return -_lex_compare(u, v)


LEX = OrderPolicy("lex", _lex_compare, assume_nyldon_like=True)
RLEX = OrderPolicy("rlex", _rlex_compare, assume_nyldon_like=False)

_REGISTRY = {p.id: p for p in (LEX, RLEX)}


def get_policy(policy_id: str) -> OrderPolicy:
    try:
        return _REGISTRY[policy_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown policy {policy_id!r} (known: {known})") from None


def register_policy(policy: OrderPolicy) -> None:
    _REGISTRY[policy.id] = policy


class CountingPolicy(OrderPolicy):
    """Wrapper that counts comparisons, for benchmarks and bound checks.

    Its id differs from the base's, so a fast path keyed on a policy id (the
    contraction engine's bytes comparator for lex) cannot bypass the count.
    """

    def __init__(self, base: OrderPolicy):
        self.calls = 0

        def counted(u, v):
            self.calls += 1
            return base.compare(u, v)

        super().__init__(f"counted-{base.id}", counted, base.assume_nyldon_like)
