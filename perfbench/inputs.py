"""Seeded inputs for the benchmark workloads.

Everything random comes from the seed given on the command line; the program
under test only ever sees the Words and argument lists built here.
"""

from __future__ import annotations

import random

from nyldon import BINARY, Word, is_primitive

FACTOR_SIZES = (10**3, 10**4, 10**5)
CONJUGATE_SIZE = 10**3
CLI_POOL = 16  # seeded words per cli-short run; each pass uses two of them


def _random(n: int, rng: random.Random) -> list[int]:
    return [rng.randrange(2) for _ in range(n)]


def _one_zeros(n: int, rng: random.Random) -> list[int]:
    return [1] + [0] * (n - 1)


def _zeros_one(n: int, rng: random.Random) -> list[int]:
    return [0] * (n - 1) + [1]


def _alternating(n: int, rng: random.Random) -> list[int]:
    return [1, 0] * (n // 2)


def _fibonacci(n: int, rng: random.Random) -> list[int]:
    a, b = [1], [1, 0]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _thue_morse(n: int, rng: random.Random) -> list[int]:
    return [bin(i).count("1") & 1 for i in range(n)]


def _sparse(n: int, rng: random.Random) -> list[int]:
    return ([1] + [0] * 99) * (n // 100)


def _ones_zero(n: int, rng: random.Random) -> list[int]:
    return [1] * (n - 1) + [0]


def _growing_blocks(n: int, rng: random.Random) -> list[int]:
    out: list[int] = []
    k = 1
    while len(out) < n:
        out += [1] + [0] * k
        k += 1
    return out[:n]


# name -> (generator, why the family is in the benchmark)
FAMILIES = {
    "random": (
        _random,
        "typical input and the only seeded family; a handful of long factors",
    ),
    "one_zeros": (
        _one_zeros,
        "1 0^k: one factor, every step merges over a run of zeros; "
        "quadratic for slice comparison (18 s at 10^5)",
    ),
    "zeros_one": (
        _zeros_one,
        "0^k 1: n one-letter factors and no merges; materialization dominates",
    ),
    "alternating": (
        _alternating,
        "(10)^k: periodic, n/2 equal factors, every comparison is a tie",
    ),
    "fibonacci": (
        _fibonacci,
        "Sturmian word: suffixes share long prefixes, one or two factors",
    ),
    "thue_morse": (
        _thue_morse,
        "overlap-free word: comparisons resolve after short common prefixes",
    ),
    "sparse": (
        _sparse,
        "(1 0^99)^k: periodic with a long period, equal factors of 100 letters",
    ),
    "ones_zero": (
        _ones_zero,
        "1^k 0: comparisons resolve at the first letter; per-factor overhead",
    ),
    "growing_blocks": (
        _growing_blocks,
        "1 0 1 00 1 000 ...: ~sqrt(n) factors with ever longer shared prefixes, "
        "the non-merging comparisons the linear bound leaves open",
    ),
}


def family_letters(name: str, n: int, rng: random.Random) -> tuple[int, ...]:
    letters = tuple(FAMILIES[name][0](n, rng))
    if len(letters) != n:
        raise ValueError(f"family {name} gave {len(letters)} letters, wanted {n}")
    return letters


def primitive_variant(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The word itself if primitive, else the word with its last letter flipped
    (contraction needs a primitive word)."""
    if is_primitive(Word(letters, BINARY)):
        return letters
    flipped = letters[:-1] + (1 - letters[-1],)
    if not is_primitive(Word(flipped, BINARY)):
        raise ValueError("flipping the last letter did not give a primitive word")
    return flipped


def factor_long(seed: int, sizes=FACTOR_SIZES, conj_size=CONJUGATE_SIZE):
    """(family, n, Word) for the stack factorizer, and (family, Word) for
    contraction: the conj_size words, with periodic ones made primitive."""
    rng = random.Random(seed)
    factor_inputs = [
        (name, n, Word(family_letters(name, n, rng), BINARY))
        for n in sizes
        for name in FAMILIES
    ]
    conj_inputs = [
        (name, Word(primitive_variant(w.letters), BINARY))
        for name, n, w in factor_inputs
        if n == conj_size
    ]
    return factor_inputs, conj_inputs


def cli_words(seed: int, count: int = CLI_POOL) -> list[str]:
    """Distinct primitive binary words of 10 to 20 letters, as CLI text."""
    rng = random.Random(seed)
    words: list[str] = []
    while len(words) < count:
        letters = tuple(rng.randrange(2) for _ in range(rng.randint(10, 20)))
        text = "".join(map(str, letters))
        if text not in words and is_primitive(Word(letters, BINARY)):
            words.append(text)
    return words


def build(workload: str, seed: int):
    """The inputs a workload hands to the program; timed as part of setup_s."""
    if workload == "factor-long":
        return factor_long(seed)
    if workload == "cli-short":
        return cli_words(seed)
    if workload == "sweep":
        return None  # fixed scan parameters, nothing to generate
    raise ValueError(f"unknown workload {workload!r}")
