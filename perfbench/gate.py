"""Correctness gate: every check counts as attempted, a failed check counts as
a failure, and no check aborts the run. `error_rate` is failed / attempted."""

from __future__ import annotations

import itertools

from nyldon import BINARY, Factorization, Word, fastfactor


class Gate:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first few, for the report

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def joined(factors) -> tuple[int, ...]:
    return tuple(itertools.chain.from_iterable(f.letters for f in factors))


def is_rotation(word: tuple[int, ...], other: tuple[int, ...]) -> bool:
    return len(word) == len(other) and bytes(other) in bytes(word + word)


def check_factorization(gate: Gate, label: str, word: Word, fact: Factorization) -> None:
    """Factors concatenate to the word, are nondecreasing, and are members."""
    gate.check(joined(fact.factors) == word.letters, f"{label}: factors do not concatenate to the input")
    # verify() without a source: its own concatenation check is quadratic in
    # the factor count, which is 10^5 for 0^k 1.
    gate.check(fact.verify(), f"{label}: factors are not nondecreasing")
    distinct = {f.letters: f for f in fact.factors}.values()
    gate.check(
        all(fastfactor.is_nyldon(f) for f in distinct),
        f"{label}: a factor is not a Nyldon word",
    )


def check_comparisons(gate: Gate, label: str, letters: int, comparisons: int) -> None:
    gate.check(
        comparisons <= 2 * letters - 1,
        f"{label}: {comparisons} comparisons exceed 2n-1 for n={letters}",
    )


def check_conjugate(gate: Gate, label: str, word: Word, conj: Word) -> None:
    gate.check(is_rotation(word.letters, conj.letters), f"{label}: not a rotation of the input")
    gate.check(fastfactor.is_nyldon(conj), f"{label}: conjugate is not a Nyldon word")


def check_trace(gate: Gate, label: str, word: str, stdout: str, conjugate: str) -> None:
    """Contraction snapshots: start at the letters, stay rotations of the word,
    lose blocks every phase and end at the distinguished conjugate."""
    snaps = [line.split(", ") for line in stdout.rstrip("\n").split("\n")]
    letters = tuple(int(c) for c in word)
    ok = (
        snaps[0] == list(word)
        and snaps[-1] == [conjugate]
        and all(len(a) > len(b) for a, b in zip(snaps, snaps[1:]))
        and all(
            is_rotation(letters, BINARY.parse("".join(s))) for s in snaps
        )
    )
    gate.check(ok, f"{label}: trace snapshots are malformed")
