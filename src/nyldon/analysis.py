"""Block-code and power-factorization analyses.

Three families of checks live here:

* circular-code verification for sets of equal-length words: every
  concatenation of codewords, rotated by a non-multiple of the block length,
  must fail to re-parse into codewords;
* power profiling: the factorization of w^k splits into a prefix, a maximal
  central run of copies of w's distinguished conjugate, and a suffix; the
  deficit K = k - central_copies is bounded by floor(log2 |w|) + 1;
* a suffix criterion for Lyndon words: any word lexicographically smaller
  than all of its Lyndon proper suffixes is itself Lyndon.

Scans honor the NYLDON_BUDGET_MS environment variable as a soft wall-clock
cap and can fan out across processes with a jobs argument.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

from . import fastfactor, melancon
from .errors import BudgetExceededError, InvariantError, NotPrimitiveError
from .words import Alphabet, Word, is_primitive, lyndon_words, minimal_period

DEFAULT_OP_BUDGET = 5_000_000


class Deadline:
    """Soft wall-clock cap read from NYLDON_BUDGET_MS (unset = no cap)."""

    def __init__(self, budget_ms: float | None = None) -> None:
        if budget_ms is None:
            raw = os.environ.get("NYLDON_BUDGET_MS")
            budget_ms = float(raw) if raw else None
        self._expires = (
            None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        )

    def check(self, what: str) -> None:
        if self._expires is not None and time.monotonic() > self._expires:
            raise BudgetExceededError(f"{what} exceeded NYLDON_BUDGET_MS")


@dataclass(frozen=True)
class CircularCodeVerdict:
    code: frozenset[Word]
    is_circular: bool
    # (codeword sequence, rotation offset) whose rotation re-parses
    witness: tuple[tuple[Word, ...], int] | None = None

    def __bool__(self) -> bool:
        return self.is_circular

    def to_dict(self) -> dict:
        return {
            "code": sorted(str(w) for w in self.code),
            "is_circular": self.is_circular,
            "witness": None
            if self.witness is None
            else {
                "sequence": [str(w) for w in self.witness[0]],
                "offset": self.witness[1],
            },
        }


def rotation_parse(
    code: Iterable[Word], sequence: Sequence[Word], offset: int
) -> tuple[Word, ...] | None:
    """Rotate the concatenation of `sequence` left by `offset` and chop it
    into blocks of the code's common length; return the blocks if every one
    is a codeword, else None."""
    pool = set(code)
    if not pool:
        raise ValueError("code must be nonempty")
    lengths = {len(w) for w in pool}
    if len(lengths) != 1:
        raise ValueError("codewords must all have the same length")
    (ell,) = lengths
    if not sequence:
        raise ValueError("sequence must be nonempty")
    alphabet = next(iter(pool)).alphabet
    letters: tuple[int, ...] = ()
    for w in sequence:
        if w not in pool:
            raise ValueError(f"{w} is not a codeword")
        letters = letters + w.letters
    offset %= len(letters)
    rotated = letters[offset:] + letters[:offset]
    members = {w.letters for w in pool}
    blocks = []
    for start in range(0, len(rotated), ell):
        chunk = rotated[start : start + ell]
        if chunk not in members:
            return None
        blocks.append(Word(chunk, alphabet))
    return tuple(blocks)


def circular_code_check(
    code: Iterable[Word],
    max_blocks: int,
    budget: int | None = DEFAULT_OP_BUDGET,
) -> CircularCodeVerdict:
    """Exhaustively test circularity over all codeword sequences of up to
    max_blocks blocks and all rotation offsets that are not multiples of the
    block length."""
    pool = sorted(set(code))
    if not pool:
        raise ValueError("code must be nonempty")
    lengths = {len(w) for w in pool}
    if len(lengths) != 1:
        raise ValueError("codewords must all have the same length")
    (ell,) = lengths
    if max_blocks < 1:
        raise ValueError("max_blocks must be at least 1")

    work = sum(len(pool) ** t * t * ell for t in range(1, max_blocks + 1))
    if budget is not None and work > budget:
        raise BudgetExceededError(
            f"circular check would inspect ~{work} rotations (budget {budget})"
        )

    members = {w.letters for w in pool}
    deadline = Deadline()
    for t in range(1, max_blocks + 1):
        for seq in product(pool, repeat=t):
            deadline.check("circular_code_check")
            letters: tuple[int, ...] = ()
            for w in seq:
                letters = letters + w.letters
            n = len(letters)
            for r in range(1, n):
                if r % ell == 0:
                    continue
                rotated = letters[r:] + letters[:r]
                if all(
                    rotated[s : s + ell] in members for s in range(0, n, ell)
                ):
                    return CircularCodeVerdict(
                        frozenset(pool), False, (seq, r)
                    )
    return CircularCodeVerdict(frozenset(pool), True, None)


@dataclass(frozen=True)
class PowerProfile:
    """Shape of the factorization of w^k around copies of w's conjugate.

    The factor list of w^k always reads prefix_factors, then central_copies
    copies of n, then suffix_factors, where n is the distinguished conjugate
    of w and the central run is the maximal (first longest) run of factors
    equal to n. K = k - central_copies when the run is nonempty; when no
    factor equals n the split is reported as all-prefix and K is None.
    """

    w: Word
    n: Word
    k: int
    prefix_factors: tuple[Word, ...]
    central_copies: int
    suffix_factors: tuple[Word, ...]
    K: int | None

    def to_dict(self) -> dict:
        return {
            "w": str(self.w),
            "n": str(self.n),
            "k": self.k,
            "prefix_factors": [str(f) for f in self.prefix_factors],
            "central_copies": self.central_copies,
            "suffix_factors": [str(f) for f in self.suffix_factors],
            "K": self.K,
        }


def power_profile(w: Word, k: int) -> PowerProfile:
    """Factorize w^k and locate the maximal run of factors equal to w's
    distinguished conjugate."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not is_primitive(w):
        raise NotPrimitiveError(w, minimal_period(w))
    n = melancon.conjugate(w)
    factors = fastfactor.nyldon_factorize(w * k).factors

    target = n.letters
    best_start, best_len = 0, 0
    i = 0
    while i < len(factors):
        if factors[i].letters == target:
            j = i
            while j < len(factors) and factors[j].letters == target:
                j += 1
            if j - i > best_len:
                best_start, best_len = i, j - i
            i = j
        else:
            i += 1

    if best_len == 0:
        prefix, suffix = tuple(factors), ()
        K: int | None = None
    else:
        prefix = tuple(factors[:best_start])
        suffix = tuple(factors[best_start + best_len :])
        K = k - best_len
        if K > math.floor(math.log2(len(w))) + 1:
            raise InvariantError(f"power deficit K={K} exceeds bound for |w|={len(w)}")
    return PowerProfile(w, n, k, prefix, best_len, suffix, K)


@dataclass(frozen=True)
class KBoundReport:
    alphabet: Alphabet
    max_len: int
    k: int
    word_count: int
    max_K: int
    histogram: dict[int, int] = field(default_factory=dict)
    violations: tuple[Word, ...] = ()
    no_central: tuple[Word, ...] = ()  # words whose profile has no n run

    def to_dict(self) -> dict:
        return {
            "alphabet_size": self.alphabet.size,
            "max_len": self.max_len,
            "k": self.k,
            "word_count": self.word_count,
            "max_K": self.max_K,
            "histogram": {str(key): val for key, val in sorted(self.histogram.items())},
            "violations": [str(w) for w in self.violations],
            "no_central": [str(w) for w in self.no_central],
        }


def _profile_rep(args: tuple[int, tuple[int, ...], int]) -> tuple[tuple[int, ...], int | None, bool]:
    """Worker: profile one conjugacy-class representative at k, k+1, k+2.

    Returns (letters, K, stable) where stable records that the prefix and
    suffix factor lists and the deficit agree across the three exponents.
    """
    size, letters, k = args
    w = Word(letters, Alphabet(size))
    profiles = [power_profile(w, kk) for kk in (k, k + 1, k + 2)]
    base = profiles[0]
    if base.central_copies == 0:
        return letters, None, all(p.central_copies == 0 for p in profiles)
    stable = all(
        p.prefix_factors == base.prefix_factors
        and p.suffix_factors == base.suffix_factors
        and p.K == base.K
        for p in profiles
    )
    return letters, base.K, stable


def k_bound_scan(
    alphabet: Alphabet,
    max_len: int,
    k: int | None = None,
    jobs: int = 1,
) -> KBoundReport:
    """Profile every primitive conjugacy class up to max_len (one Lyndon
    representative each) at exponent k (default floor(log2 max_len) + 3),
    asserting the deficit bound and prefix/suffix stability at k, k+1, k+2."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if k is None:
        k = math.floor(math.log2(max_len)) + 3
    if k < 1:
        raise ValueError("k must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")

    reps = [w.letters for w in lyndon_words(alphabet, max_len)]
    tasks = [(alphabet.size, letters, k) for letters in reps]
    deadline = Deadline()

    results: list[tuple[tuple[int, ...], int | None, bool]] = []
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for res in pool.map(_profile_rep, tasks, chunksize=32):
                deadline.check("k_bound_scan")
                results.append(res)
    else:
        for task in tasks:
            deadline.check("k_bound_scan")
            results.append(_profile_rep(task))

    histogram: dict[int, int] = {}
    violations: list[Word] = []
    no_central: list[Word] = []
    max_K = 0
    for letters, K, stable in results:
        w = Word(letters, alphabet)
        if K is None:
            no_central.append(w)
            continue
        if not stable:
            violations.append(w)
            continue
        histogram[K] = histogram.get(K, 0) + 1
        max_K = max(max_K, K)
        if len(w) > 1 and K > math.floor(math.log2(len(w))) + 1:
            violations.append(w)
    return KBoundReport(
        alphabet=alphabet,
        max_len=max_len,
        k=k,
        word_count=len(reps),
        max_K=max_K,
        histogram=histogram,
        violations=tuple(violations),
        no_central=tuple(no_central),
    )


def sn_ka_check(n: Word, s: Word, a: Word, k: int) -> bool:
    """For a member word n, nonempty suffix s of n, word a, and exponent k
    with 2^k > |n|: true iff s n^k a is not a member AND the factorization of
    n^k a begins with a factor x with |x| >= |n| and x >= n lexicographically.
    """
    if not fastfactor.is_nyldon(n):
        raise ValueError("n must be a member word")
    if not s.is_suffix_of(n):
        raise ValueError("s must be a nonempty suffix of n")
    if a.alphabet != n.alphabet or s.alphabet != n.alphabet:
        raise ValueError("all words must share n's alphabet")
    if 2**k <= len(n):
        raise ValueError("k must satisfy 2^k > |n|")

    power = n * k
    if fastfactor.is_nyldon(s + power + a):
        return False
    first = fastfactor.nyldon_factorize(power + a).factors[0]
    return len(first) >= len(n) and first.letters >= n.letters


def _lyndon_suffix_range(
    args: tuple[int, int, frozenset[tuple[int, ...]]]
) -> tuple[int, ...] | None:
    """Worker: scan all words of one length; return a counterexample or None."""
    size, length, lyndon_set = args
    for tup in product(range(size), repeat=length):
        ok_hypothesis = True
        for i in range(1, length):
            suf = tup[i:]
            if suf in lyndon_set and not tup < suf:
                ok_hypothesis = False
                break
        if ok_hypothesis and tup not in lyndon_set:
            return tup
    return None


def lyndon_suffix_check(
    alphabet: Alphabet, max_len: int, jobs: int = 1
) -> bool:
    """Check, for every word w of length <= max_len, that if w is smaller
    than all of its Lyndon proper suffixes then w is itself Lyndon (i.e. its
    nonincreasing Lyndon factorization has a single factor)."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    lyndon_set = frozenset(
        w.letters for w in lyndon_words(alphabet, max_len)
    )
    tasks = [(alphabet.size, length, lyndon_set) for length in range(1, max_len + 1)]
    deadline = Deadline()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for counterexample in pool.map(_lyndon_suffix_range, tasks):
                deadline.check("lyndon_suffix_check")
                if counterexample is not None:
                    return False
        return True
    for task in tasks:
        deadline.check("lyndon_suffix_check")
        if _lyndon_suffix_range(task) is not None:
            return False
    return True
