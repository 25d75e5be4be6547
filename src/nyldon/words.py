"""Words over a finite alphabet: lex order, primitivity, conjugates, Lyndon tools.

Letters are integer codes 0..size-1. The lexicographic order used throughout is
the standard one on variable-length words: a proper prefix sorts before its
extensions, otherwise the first differing letter decides. Python tuple
comparison implements exactly this order, which the Word dunders lean on.
"""

from __future__ import annotations

import itertools
from functools import total_ordering
from typing import Iterator

from .errors import AlphabetMismatchError


class _Frozen:
    """The package's one value-class mechanism. A subclass names its fields
    in `__slots__`, in constructor order, and this base derives the rest from
    that tuple: a positional and keyword constructor, equality (within the
    class only) and a hash over the field values, a `Name(field=value, ...)`
    repr, immutability, and pickling and copying through the constructor. A
    class that validates its arguments or has a default writes its own
    `__init__` and passes the values on.

    The methods read the field tuple on each call instead of generating code
    per class: the standard library's class generator, with the `inspect` it
    imports, cost each CLI process more than the stack factorizer does, and
    building and comparing these classes is not hot. What is hot keeps its
    own methods: `Word`'s, and `Alphabet.__hash__`, which every Word hash
    calls."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):  # positional calls skip the binding
            values = dict(zip(names, args), **kwargs)
            if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other is self:  # every Word order check compares its (shared) alphabet
            return True
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return _field_repr(self, self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


def _field_repr(value: _Frozen, names: tuple[str, ...]) -> str:
    """`Name(field=value, ...)` over the fields `names`."""
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    return f"{type(value).__name__}({fields})"


class Alphabet(_Frozen):
    """A totally ordered alphabet of `size` letters, coded 0..size-1."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        if size < 2:
            raise ValueError(f"alphabet size must be >= 2, got {size}")
        _Frozen.__init__(self, size)

    def __hash__(self) -> int:
        # the base's hash, written out: every Word hash calls it, and the
        # generic one made lazard_run(BINARY, 13) about 50% slower
        return hash((self.size,))

    def render(self, letters: tuple[int, ...]) -> str:
        if self.size <= 10:
            return "".join(str(c) for c in letters)
        return ",".join(str(c) for c in letters)

    def parse(self, text: str) -> tuple[int, ...]:
        """Inverse of render: digit string for size <= 10, comma codes otherwise."""
        text = text.strip()
        if not text:
            raise ValueError("empty word")
        if "," in text:
            codes = tuple(int(part) for part in text.split(","))
        elif self.size <= 10:
            codes = tuple(int(ch) for ch in text)
        else:
            # A bare number is ambiguous for big alphabets; require commas there
            # except for the single-letter case.
            codes = (int(text),)
        return codes


BINARY = Alphabet(2)
TERNARY = Alphabet(3)


@total_ordering
class Word(_Frozen):
    """A nonempty immutable word; ordered lexicographically within its alphabet."""

    __slots__ = ("letters", "alphabet")

    def __init__(self, letters: tuple[int, ...], alphabet: Alphabet = BINARY):
        if not isinstance(letters, tuple):
            letters = tuple(letters)
        if not letters:
            raise ValueError("words are nonempty")
        size = alphabet.size
        for c in letters:
            if not 0 <= c < size:
                raise ValueError(f"letter {c} out of range for alphabet of size {size}")
        _set_letters(self, letters)
        _set_alphabet(self, alphabet)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.letters, self.alphabet) == (other.letters, other.alphabet)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.letters, self.alphabet))

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet = BINARY) -> Word:
        return cls(alphabet.parse(text), alphabet)

    def __str__(self) -> str:
        return self.alphabet.render(self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, size={self.alphabet.size})"

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, index):
        if isinstance(index, slice):
            letters = self.letters[index]
            if not letters:
                raise ValueError("words are nonempty")
            return _unchecked_word(letters, self.alphabet)
        return self.letters[index]

    def _check_same_alphabet(self, other: Word) -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError(
                f"cannot combine words over alphabets of size "
                f"{self.alphabet.size} and {other.alphabet.size}"
            )

    def __lt__(self, other: Word) -> bool:
        self._check_same_alphabet(other)
        return self.letters < other.letters

    def __add__(self, other: Word) -> Word:
        self._check_same_alphabet(other)
        return _unchecked_word(self.letters + other.letters, self.alphabet)

    def __mul__(self, k: int) -> Word:
        if k < 1:
            raise ValueError("word powers need k >= 1")
        return _unchecked_word(self.letters * k, self.alphabet)

    def rotate(self, offset: int) -> Word:
        """Left rotation: rotate(1) moves the first letter to the end."""
        k = offset % len(self.letters)
        return _unchecked_word(self.letters[k:] + self.letters[:k], self.alphabet)

    def is_suffix_of(self, other: Word) -> bool:
        self._check_same_alphabet(other)
        n = len(self.letters)
        return other.letters[len(other.letters) - n:] == self.letters


_set_letters = Word.__dict__["letters"].__set__
_set_alphabet = Word.__dict__["alphabet"].__set__


def _unchecked_word(letters: tuple[int, ...], alphabet: Alphabet) -> Word:
    """A Word without the constructor's checks, for a nonempty letter tuple
    already known to lie in the alphabet (a slice of a checked Word, say)."""
    w = object.__new__(Word)
    _set_letters(w, letters)
    _set_alphabet(w, alphabet)
    return w


def _storage(values: int):
    """How letters below `values` are held to compare in C, in lex order:
    bytes when `values` <= 256, else the tuple. Bytes and tuples do not
    compare, so words that meet (a Lazard run's) share one `values`."""
    return bytes if values <= 256 else tuple


class Factorization(_Frozen):
    """A tuple of factors plus the order they are claimed to satisfy.

    `nyldon_factorize` and `duval_lyndon_factorization` give equal adjacent
    factors one shared `Word`. Words are immutable and compare by value, so
    the sharing changes no output, equality or hash, and a pickle (smaller,
    as it stores a shared Word once) loads equal.

    `order_witness` is "<policy>:<direction>", e.g. "lex:nondecreasing" for
    stack factorizations or "lex:nonincreasing" for Chen-Fox-Lyndon.
    """

    __slots__ = ("factors", "order_witness")

    def __init__(
        self, factors: tuple[Word, ...], order_witness: str = "lex:nondecreasing"
    ):
        if not factors:
            raise ValueError("a factorization has at least one factor")
        _Frozen.__init__(self, factors, order_witness)

    @property
    def word(self) -> Word:
        first = self.factors[0]
        for f in self.factors:
            first._check_same_alphabet(f)
        letters = itertools.chain.from_iterable(f.letters for f in self.factors)
        return _unchecked_word(tuple(letters), first.alphabet)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.factors)

    def verify(self, source: Word | None = None) -> bool:
        """Check concatenation (against `source` if given) and factor order."""
        if source is not None and self.word != source:
            return False
        policy_id, _, direction = self.order_witness.partition(":")
        from .order import get_policy

        key = get_policy(policy_id).key
        keys = [key(f.letters) for f in self.factors]
        pairs = zip(keys, keys[1:])
        if direction == "nonincreasing":
            return all(a >= b for a, b in pairs)
        return all(a <= b for a, b in pairs)


def _failure_function(letters: tuple[int, ...]) -> list[int]:
    """Longest proper border length of each prefix (KMP table)."""
    n = len(letters)
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and letters[i] != letters[k]:
            k = fail[k - 1]
        if letters[i] == letters[k]:
            k += 1
        fail[i] = k
    return fail


def minimal_period_length(letters: tuple[int, ...]) -> int:
    n = len(letters)
    border = _failure_function(letters)[-1]
    p = n - border
    return p if n % p == 0 else n


def minimal_period(w: Word) -> Word:
    """Shortest u with w = u^k; equals w itself iff w is primitive."""
    return w[: minimal_period_length(w.letters)]


def is_primitive(w: Word) -> bool:
    return minimal_period_length(w.letters) == len(w)


def conjugates(w: Word) -> list[Word]:
    """All rotations of w in offset order; duplicates retained if w is a power."""
    return [w.rotate(k) for k in range(len(w))]


def duval_lyndon_factorization(w: Word) -> Factorization:
    """Chen-Fox-Lyndon factorization: nonincreasing Lyndon factors, Duval's algorithm."""
    s = w.letters
    n = len(s)
    factors = []
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        # the copies of one Lyndon word that Duval's inner loop emits share
        # a single Word
        period = j - k
        factor = _unchecked_word(s[i : i + period], w.alphabet)
        while i <= k:
            factors.append(factor)
            i += period
    return Factorization(tuple(factors), "lex:nonincreasing")


def is_lyndon(w: Word) -> bool:
    """Single-factor test on Duval's algorithm."""
    return len(duval_lyndon_factorization(w)) == 1


def lyndon_words(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """Generate all Lyndon words of length <= max_len in lex order (FKM algorithm)."""
    size = alphabet.size
    w = [0]
    while True:
        yield Word(tuple(w), alphabet)
        # Extend w periodically to full length, then bump the last letter that
        # can still grow; what remains is the next Lyndon word.
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == size - 1:
            w.pop()
        if not w:
            return
        w[-1] += 1


def words_up_to(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """All words of length 1..max_len in shortlex order."""
    for n in range(1, max_len + 1):
        for tup in itertools.product(range(alphabet.size), repeat=n):
            yield Word(tup, alphabet)
