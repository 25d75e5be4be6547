"""Block-code and power-factorization analyses.

Three families of checks live here:

* circular-code decision for sets of equal-length words: no concatenation
  of codewords, rotated by a non-multiple of the block length, re-parses
  into codewords, which holds exactly when the code's split graph has no
  cycle;
* power profiling: the factorization of w^k splits into a prefix, a maximal
  central run of copies of w's distinguished conjugate, and a suffix; the
  deficit K = k - central_copies is bounded by floor(log2 |w|) + 1. K
  belongs to the word, not to its conjugacy class: rotations of one word
  can differ in K. The bound scan profiles the Lyndon representative of
  each class, at k, k+1 and k+2 from one stack scan of w^(k+2), whose
  suffix snapshots are the factorizations of w^k and w^(k+1), and
  `power_profile` and the scan locate the run with one helper;
* a suffix criterion for Lyndon words: any word lexicographically smaller
  than all of its Lyndon proper suffixes is itself Lyndon.

Each scan checks, before it starts, what it would visit against the one
budget (`errors.DEFAULT_WORD_BUDGET`): the suffix scan counts every word up
to its max_len, the power scan the Lyndon representatives it profiles, the
circular check the edges of its split graph, and the fixed-length code the
Lyndon words it generates. The power scan fans out across
min(jobs, CPU count, tasks) processes, and runs in-process when that is 1.
"""

from __future__ import annotations

import math
import os
from itertools import groupby, product
from typing import Collection, Iterable, Sequence

from . import fastfactor, melancon
from .errors import DEFAULT_WORD_BUDGET, InvariantError, NotPrimitiveError
from .errors import check_budget, check_word_budget
from .oracle import primitive_necklace_count
from .words import Alphabet, Word, _Frozen, _unchecked_word, is_primitive, lyndon_words
from .words import minimal_period


class CircularCodeVerdict(_Frozen):
    """`witness` is None for a circular code, else a (codeword sequence,
    rotation offset) pair whose rotation re-parses into codewords."""

    __slots__ = ("code", "is_circular", "witness")

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


def _block_length(pool: Collection[Word]) -> int:
    """The one length of the words of a nonempty code."""
    if not pool:
        raise ValueError("code must be nonempty")
    lengths = {len(w) for w in pool}
    if len(lengths) != 1:
        raise ValueError("codewords must all have the same length")
    return lengths.pop()


def rotation_parse(
    code: Iterable[Word], sequence: Sequence[Word], offset: int
) -> tuple[Word, ...] | None:
    """Rotate the concatenation of `sequence` left by `offset` and chop it
    into blocks of the code's common length; return the blocks if every one
    is a codeword, else None."""
    pool = set(code)
    ell = _block_length(pool)
    if not sequence:
        raise ValueError("sequence must be nonempty")
    for w in sequence:
        if w not in pool:
            raise ValueError(f"{w} is not a codeword")
    letters = tuple(x for w in sequence for x in w.letters)
    offset %= len(letters)
    rotated = letters[offset:] + letters[:offset]
    members = {w.letters: w for w in pool}
    chunks = [rotated[start : start + ell] for start in range(0, len(rotated), ell)]
    if not all(chunk in members for chunk in chunks):
        return None
    return tuple(members[chunk] for chunk in chunks)


def circular_code_check(
    code: Iterable[Word], budget: int | None = DEFAULT_WORD_BUDGET
) -> CircularCodeVerdict:
    """Decide whether a code of words of one length ell is circular: no
    codeword sequence re-parses after a rotation by a non-multiple of ell.
    Its split graph has an edge p -> s for every codeword ps with 1 <= |p|
    <= ell - 1, and the code is circular if and only if the graph has no
    cycle (Fimmel, Michel and Struengmann, Phil. Trans. R. Soc. A 374, 2016;
    Berstel, Perrin and Reutenauer, Codes and Automata):

    * a cycle u0 -> u1 -> ... -> u0, gone round twice if its length is odd,
      is a witness: the sequence (u0 u1, u2 u3, ...) rotated by |u0|
      re-parses as (u1 u2, u3 u4, ..., u_last u0);
    * a re-parse at an offset r that is not a multiple of ell cuts each
      codeword x_i of the sequence into p_i s_i with |p_i| = r mod ell and
      reads the blocks s_i p_(i+1) around the circle, so p_0 -> s_0 -> p_1
      -> s_1 -> ... walks the finite graph forever: the graph has a cycle.

    One iterative depth-first search decides it. The budget counts the
    graph's edges, |code| * (ell - 1); a code of one-letter words has none.
    """
    pool = sorted(set(code))
    ell = _block_length(pool)
    _check_split_graph(len(pool) * (ell - 1), budget)
    successors: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for w in pool:
        for i in range(1, ell):
            successors.setdefault(w.letters[:i], []).append(w.letters[i:])

    finished: set[tuple[int, ...]] = set()
    for root in successors:
        # the search path in order, each vertex with its unexplored edges
        path = {} if root in finished else {root: iter(successors[root])}
        while path:
            vertex = next(reversed(path))
            target = next(path[vertex], None)
            if target is None:
                del path[vertex]
                finished.add(vertex)
            elif target in path:
                cycle = list(path)
                cycle = cycle[cycle.index(target) :]
                if len(cycle) % 2:
                    cycle += cycle
                sequence = tuple(
                    Word(u + v, pool[0].alphabet) for u, v in zip(cycle[::2], cycle[1::2])
                )
                return CircularCodeVerdict(frozenset(pool), False, (sequence, len(cycle[0])))
            elif target not in finished:
                path[target] = iter(successors.get(target, ()))
    return CircularCodeVerdict(frozenset(pool), True, None)


def _check_split_graph(edges: int, budget: int | None) -> None:
    check_budget(edges, budget, "circular check's split graph would hold", unit="edges")


def fixed_length_code(alphabet: Alphabet, length: int) -> list[Word]:
    """The member words of one length, in lex order: the circular contraction
    of each Lyndon word of that length, as each primitive class holds one
    member. Before it starts, the Lyndon words the FKM generator visits (every
    one up to `length`) are checked against the word budget, and the code's
    split graph against the edge budget of `circular_code_check`, so a code
    too large to check is refused before it is built."""
    if length < 1:
        raise ValueError("length must be at least 1")
    counts = [primitive_necklace_count(alphabet.size, n) for n in range(1, length + 1)]
    what = "the length-{} code would visit"
    check_budget(sum(counts), DEFAULT_WORD_BUDGET, what, length)
    _check_split_graph(counts[-1] * (length - 1), DEFAULT_WORD_BUDGET)
    reps = (w for w in lyndon_words(alphabet, length) if len(w) == length)
    return sorted(melancon.conjugate(w) for w in reps)


class PowerProfile(_Frozen):
    """Shape of the factorization of w^k around copies of w's conjugate.

    The factor list of w^k always reads prefix_factors, then central_copies
    copies of n, then suffix_factors, where n is the distinguished conjugate
    of w and the central run is the maximal (first longest) run of factors
    equal to n. K = k - central_copies when the run is nonempty; when no
    factor equals n the split is reported as all-prefix and K is None.
    """

    __slots__ = ("w", "n", "k", "prefix_factors", "central_copies", "suffix_factors",
                 "K")

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


def power_profile(w: Word, k: int, n: Word | None = None) -> PowerProfile:
    """Factorize w^k and locate the maximal run of factors equal to w's
    distinguished conjugate n.

    n defaults to `melancon.conjugate(w)`. A caller that profiles one word at
    several exponents computes it once and passes it in; it must be that
    conjugate, and it is not checked.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not is_primitive(w):
        raise NotPrimitiveError(w, minimal_period(w))
    if n is None:
        n = melancon.conjugate(w)
    power = w.letters * k
    ranges, _ = fastfactor.factor_ranges(power)
    factors = [power[a:b] for a, b in ranges]
    start, copies, K = _central_run(factors, n.letters, k)
    prefix = tuple(_unchecked_word(f, w.alphabet) for f in factors[:start])
    suffix = tuple(_unchecked_word(f, w.alphabet) for f in factors[start + copies :])
    return PowerProfile(w, n, k, prefix, copies, suffix, K)


def _central_run(
    factors: list[tuple[int, ...]], n: tuple[int, ...], k: int
) -> tuple[int, int, int | None]:
    """The first longest run of factors equal to n in the factorization of
    w^k, as (start, copies, K) with K = k - copies. With no such factor the
    run is empty at the end, (len(factors), 0, None). Raises InvariantError
    when K exceeds floor(log2 |w|) + 1."""
    start, best_start, best_len = 0, len(factors), 0
    for equal, run in groupby(factors, n.__eq__):
        size = len(list(run))
        if equal and size > best_len:
            best_start, best_len = start, size
        start += size
    if best_len == 0:
        return best_start, 0, None
    K = k - best_len
    if K > math.floor(math.log2(len(n))) + 1:
        raise InvariantError(f"power deficit K={K} exceeds bound for |w|={len(n)}")
    return best_start, best_len, K


class KBoundReport(_Frozen):
    """The scan's result over the Lyndon representative of each primitive
    conjugacy class: `histogram` counts the representatives by their deficit
    K, which other rotations of the same class need not share; `no_central`
    lists the words whose profile has no run of n."""

    __slots__ = ("alphabet", "max_len", "k", "word_count", "max_K", "histogram",
                 "violations", "no_central")

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
    """Worker: profile one conjugacy-class representative w at k, k+1, k+2
    from one stack scan of w^(k+2), computing its conjugate once.

    The scan reads right to left, so its stack after the suffixes w^k and
    w^(k+1) is their factorization. Each power of w is also a prefix of
    w^(k+2), so a suffix's ranges, counted from its start, slice w^(k+2)
    directly. Returns (letters, K, ok): ok is false when the deficit exceeds
    its bound or when the prefix and suffix factor lists and the deficit
    differ across the three exponents; K is None when the bound failed or
    the profile has no central run.
    """
    size, letters, k = args
    n = melancon.conjugate(Word(letters, Alphabet(size))).letters
    power = letters * (k + 2)
    m = len(letters)
    whole, _, suffixes = fastfactor.factor_ranges(power, suffixes=(2 * m, m))
    profiles = []
    for kk, ranges in zip((k, k + 1, k + 2), suffixes + [whole]):
        factors = [power[a:b] for a, b in ranges]
        try:
            start, copies, K = _central_run(factors, n, kk)
        except InvariantError:  # the deficit bound failed
            return letters, None, False
        profiles.append((factors[:start], factors[start + copies :], K))
    base = profiles[0]
    if base[2] is None:
        return letters, None, True
    return letters, base[2], all(p == base for p in profiles)


def _workers(jobs: int, tasks: int) -> int:
    """The processes a scan of `tasks` tasks starts for `jobs`: no more than
    the cores or the tasks, since a fork pool starts every worker on its
    first submit. A scan runs in-process when this is 1."""
    return min(jobs, os.cpu_count() or 1, tasks)


def k_bound_scan(
    alphabet: Alphabet,
    max_len: int,
    k: int | None = None,
    jobs: int = 1,
) -> KBoundReport:
    """Profile the Lyndon representative of each primitive conjugacy class
    up to max_len at exponent k (default floor(log2 max_len) + 3), checking
    the deficit bound and prefix/suffix stability at k, k+1, k+2. K belongs
    to the word, not to its class, so other rotations are not covered: at
    k = 7, 01111011011111011110111 has K = 4 and its Lyndon rotation K = 3.
    Each class costs one `melancon.conjugate`, an independent check on the
    stack factorizer, and one stack scan of w^(k+2) (see `_profile_rep`).
    A word that fails either check is listed in `violations`. The
    representatives it would profile count against the word budget."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if k is None:
        k = math.floor(math.log2(max_len)) + 3
    if k < 1:
        raise ValueError("k must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    classes = sum(primitive_necklace_count(alphabet.size, n) for n in range(1, max_len + 1))
    check_budget(classes, DEFAULT_WORD_BUDGET, "power scan would profile")

    reps = [w.letters for w in lyndon_words(alphabet, max_len)]
    tasks = [(alphabet.size, letters, k) for letters in reps]

    workers = _workers(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_profile_rep, tasks, chunksize=32))
    else:
        results = [_profile_rep(task) for task in tasks]

    histogram: dict[int, int] = {}
    violations: list[Word] = []
    no_central: list[Word] = []
    max_K = 0
    for letters, K, ok in results:
        w = Word(letters, alphabet)
        if not ok:
            violations.append(w)
        elif K is None:
            no_central.append(w)
        else:
            histogram[K] = histogram.get(K, 0) + 1
            max_K = max(max_K, K)
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


def lyndon_suffix_check(alphabet: Alphabet, max_len: int) -> bool:
    """Check, for every word w of length <= max_len, that if w is smaller
    than all of its Lyndon proper suffixes then w is itself Lyndon (i.e. its
    nonincreasing Lyndon factorization has a single factor). Every word up
    to max_len counts against the word budget."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    check_word_budget("Lyndon suffix check", alphabet.size, max_len, DEFAULT_WORD_BUDGET)
    lyndon_set = frozenset(
        w.letters for w in lyndon_words(alphabet, max_len)
    )
    for length in range(1, max_len + 1):
        for tup in product(range(alphabet.size), repeat=length):
            for i in range(1, length):
                suf = tup[i:]
                if suf in lyndon_set and not tup < suf:
                    break  # the hypothesis fails
            else:
                if tup not in lyndon_set:
                    return False
    return True
