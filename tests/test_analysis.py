"""Circular codes, power-deficit profiling, and the Lyndon suffix criterion."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nyldon import (
    BINARY,
    LEX,
    TERNARY,
    BudgetExceededError,
    InvariantError,
    NotPrimitiveError,
    Word,
    analysis,
    circular_code_check,
    conjugate,
    enumerate_nyldon,
    generate,
    is_nyldon,
    k_bound_scan,
    lyndon_suffix_check,
    lyndon_words,
    melancon,
    nyldon_factorization_bruteforce,
    power_profile,
    rotation_parse,
    sn_ka_check,
)
from nyldon.words import is_lyndon, is_primitive


def fixed_length_members(length):
    return [w for w in enumerate_nyldon(BINARY, length).words() if len(w) == length]


def bounded_search(code, max_blocks):
    """The reference the split-graph decision is checked against: try every
    sequence of up to max_blocks codewords at every rotation offset that is
    not a multiple of the block length."""
    pool = sorted(set(code))
    ell = len(pool[0])
    members = {w.letters for w in pool}
    for t in range(1, max_blocks + 1):
        for seq in itertools.product(pool, repeat=t):
            letters = tuple(x for w in seq for x in w.letters)
            n = len(letters)
            for r in range(1, n):
                if r % ell == 0:
                    continue
                rotated = letters[r:] + letters[:r]
                if all(rotated[s : s + ell] in members for s in range(0, n, ell)):
                    return seq, r
    return None


def test_fixed_length_codes_are_circular():
    for length in (2, 3, 4, 5):
        verdict = circular_code_check(fixed_length_members(length))
        assert verdict.is_circular
        assert verdict.witness is None
        assert bool(verdict)
    # the paper's claim, decided exactly at every length of each generated set
    for alphabet, max_len in ((BINARY, 14), (TERNARY, 8)):
        words = generate(LEX, alphabet, max_len).words()
        for length in range(1, max_len + 1):
            code = [w for w in words if len(w) == length]
            assert circular_code_check(code).is_circular, (alphabet.size, length)


def test_classic_counterexample():
    for texts in (("00",), ("00", "01", "10")):
        bad = [Word.parse(t) for t in texts]
        verdict = circular_code_check(bad)
        assert not verdict.is_circular
        seq, offset = verdict.witness
        assert (seq, offset) == ((Word.parse("00"),), 1)
        assert rotation_parse(bad, seq, offset) is not None
        d = verdict.to_dict()
        assert d["is_circular"] is False
        assert d["witness"] == {"sequence": ["00"], "offset": 1}


def test_split_graph_matches_the_bounded_search():
    # A simple cycle of the split graph uses each codeword at most once per
    # split position, so a non-circular code has a witness of at most |code|
    # blocks, and the search up to |code| blocks decides it too.
    rng = random.Random(0xC1C)
    outcomes = set()
    for _ in range(1500):
        alphabet = rng.choice((BINARY, TERNARY))
        ell = rng.randint(1, 4)
        words = [Word(t, alphabet) for t in itertools.product(range(alphabet.size), repeat=ell)]
        code = rng.sample(words, min(len(words), rng.randint(1, 5)))
        verdict = circular_code_check(code)
        reference = bounded_search(code, len(code))
        assert verdict.is_circular == (reference is None), [str(w) for w in code]
        outcomes.add(verdict.is_circular)
        if not verdict.is_circular:
            seq, offset = verdict.witness
            assert offset % ell != 0
            assert rotation_parse(code, seq, offset) is not None
    assert outcomes == {True, False}


def test_rotation_parse_reference():
    code = [Word.parse(t) for t in ("00", "01", "10")]
    seq = (Word.parse("00"), Word.parse("10"))
    parsed = rotation_parse(code, seq, 1)
    assert tuple(str(w) for w in parsed) == ("01", "00")
    # offsets that are multiples of the block length trivially re-parse
    assert rotation_parse(code, seq, 2) is not None
    # a rotation that leaves the code has no parse
    lone = rotation_parse([Word.parse("01")], (Word.parse("01"),), 1)
    assert lone is None


def test_rotation_parse_validation():
    code = [Word.parse(t) for t in ("00", "01")]
    with pytest.raises(ValueError):
        rotation_parse(code, (), 1)
    with pytest.raises(ValueError):
        rotation_parse(code, (Word.parse("11"),), 1)
    with pytest.raises(ValueError):
        rotation_parse([Word.parse("0"), Word.parse("01")], (Word.parse("0"),), 0)


def test_circular_verdict_is_rotation_symmetric():
    # a circular code stays circular under any relabeling of the sequence space
    code = fixed_length_members(3)
    verdict = circular_code_check(code)
    assert verdict.is_circular
    # and dropping to a subset cannot break circularity
    sub = circular_code_check(code[:1])
    assert sub.is_circular


def test_witness_survives_block_rotation():
    # a double-parse witness describes a circular word, so rotating the
    # block sequence (with the offset shifted back by the moved block)
    # yields another witness for the same code
    code = [Word.parse(t) for t in ("00", "01", "10")]
    seq = (Word.parse("00"), Word.parse("10"))
    offset = 1
    assert rotation_parse(code, seq, offset) is not None
    total = sum(len(b) for b in seq)
    for shift in range(1, len(seq)):
        rotated = seq[shift:] + seq[:shift]
        moved = sum(len(b) for b in seq[:shift])
        assert rotation_parse(code, rotated, (offset - moved) % total) is not None


def test_circular_budget():
    code = fixed_length_members(5)  # 6 codewords, 4 split positions each
    assert circular_code_check(code, budget=24).is_circular
    with pytest.raises(BudgetExceededError):
        circular_code_check(code, budget=23)


def test_power_profile_worked_example():
    w = Word.parse("01111011011111011110111")
    profile = power_profile(w, 5)
    assert str(profile.n) == "10111101101111101111011"
    assert profile.K == 4
    assert profile.central_copies == 1
    assert profile.k == 5
    d = profile.to_dict()
    assert d["K"] == 4
    assert d["central_copies"] == 1


def test_power_profile_takes_a_precomputed_conjugate():
    w = Word.parse("01111011011111011110111")
    for k in (1, 5, 7):
        assert power_profile(w, k, conjugate(w)) == power_profile(w, k)


def test_deficit_belongs_to_the_word_not_its_class():
    # the scan profiles the Lyndon rotation, so it reads 3 for this class
    w = Word.parse("01111011011111011110111")
    rep = Word.parse("01101111101111011101111")
    assert is_lyndon(rep) and conjugate(rep) == conjugate(w)  # one class
    assert power_profile(w, 7).K == 4
    assert power_profile(rep, 7).K == 3
    assert analysis._profile_rep((2, rep.letters, 7))[1] == 3


def test_k_bound_scan_computes_one_conjugate_per_class(monkeypatch):
    calls = []
    real = melancon.conjugate

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(melancon, "conjugate", counted)
    report = k_bound_scan(BINARY, 12, jobs=1)
    assert report.word_count == 747
    assert len(calls) == 747  # not one per exponent k, k + 1, k + 2


def test_power_profile_member_word():
    w = Word.parse("10")
    profile = power_profile(w, 4)
    assert profile.n == w
    assert profile.central_copies == 4
    assert profile.K == 0
    assert not profile.prefix_factors
    assert not profile.suffix_factors


def test_power_profile_validation():
    with pytest.raises(NotPrimitiveError):
        power_profile(Word.parse("0101"), 3)
    with pytest.raises(ValueError):
        power_profile(Word.parse("10"), 0)


@settings(max_examples=60)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=12).map(tuple),
    st.integers(1, 6),
)
def test_power_profile_reassembles(t, k):
    w = Word(t, BINARY)
    if not is_primitive(w):
        return
    profile = power_profile(w, k)
    pieces = (
        list(profile.prefix_factors)
        + [profile.n] * profile.central_copies
        + list(profile.suffix_factors)
    )
    joined = pieces[0]
    for p in pieces[1:]:
        joined = joined + p
    assert joined == w * k
    if profile.K is not None:
        assert profile.K <= math.floor(math.log2(len(w))) + 1


def test_k_bound_scan_small():
    report = k_bound_scan(BINARY, 8)
    assert report.violations == ()
    assert report.no_central == ()
    assert report.max_K <= math.floor(math.log2(8)) + 1
    assert report.word_count == sum(
        1 for w in lyndon_words(BINARY, 8) if len(w) >= 1
    )
    assert report.k == math.floor(math.log2(8)) + 3
    total = sum(report.histogram.values())
    assert total == report.word_count


def test_k_bound_scan_parallel_matches_serial():
    serial = k_bound_scan(BINARY, 7, jobs=1)
    parallel = k_bound_scan(BINARY, 7, jobs=2)
    assert serial == parallel


def _profile_by_exponent(w, k):
    """The scan's per-class result by its definition: three separate
    profiles, at k, k + 1 and k + 2, compared on prefix, suffix and K."""
    n = conjugate(w)
    try:
        profiles = [power_profile(w, kk, n) for kk in (k, k + 1, k + 2)]
    except InvariantError:
        return w.letters, None, False
    base = profiles[0]
    if base.K is None:
        return w.letters, None, True
    stable = all(
        (p.prefix_factors, p.suffix_factors, p.K)
        == (base.prefix_factors, base.suffix_factors, base.K)
        for p in profiles
    )
    return w.letters, base.K, stable


@pytest.mark.parametrize("alphabet, max_len", [(BINARY, 9), (TERNARY, 5)])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_one_scan_per_class_matches_three_profiles(alphabet, max_len, k):
    for w in lyndon_words(alphabet, max_len):
        expected = _profile_by_exponent(w, k)
        assert analysis._profile_rep((alphabet.size, w.letters, k)) == expected, w


def test_k_bound_scan_trivial_length():
    # single letters are members, so every power collapses to central copies
    report = k_bound_scan(BINARY, 1)
    assert report.max_K == 0
    assert report.violations == ()


def test_power_profile_matches_oracle_factorization():
    # the profile of w^k is just its factorization regrouped around the
    # central run, so reassembling it must reproduce the brute-force factors
    k = math.floor(math.log2(7)) + 3
    for rep in lyndon_words(BINARY, 7):
        profile = power_profile(rep, k)
        pieces = (
            tuple(profile.prefix_factors)
            + (profile.n,) * profile.central_copies
            + tuple(profile.suffix_factors)
        )
        expected = nyldon_factorization_bruteforce(rep * k, length_cap=64).factors
        assert pieces == expected


def test_sn_ka_check_exhaustive_small():
    # over all members ab of length <= 8 with a proper suffix s = b,
    # the power criterion matches the direct membership test
    members = [w for w in enumerate_nyldon(BINARY, 8).words() if len(w) >= 2]
    for n in members[:40]:
        s = n[1:]
        a = n[:1]
        k = len(n).bit_length()
        expected_not_member = not is_nyldon(s + (n * k) + a)
        got = sn_ka_check(n, s, a, k)
        if got:
            assert expected_not_member


def test_sn_ka_check_reference_case():
    # n = 10, s = 0, a = 1, k = 2: 0.1010.1 has a nondecreasing split,
    # so it is not a member and the criterion reports True
    n, s, a = Word.parse("10"), Word.parse("0"), Word.parse("1")
    assert sn_ka_check(n, s, a, 2) is True
    assert not is_nyldon(s + (n * 2) + a)


def test_sn_ka_randomized_sweep_all_true():
    # the criterion holds for every member n, proper suffix s, and short
    # tail a once 2^k exceeds |n|
    rng = random.Random(42)
    members = [w for w in enumerate_nyldon(BINARY, 8).words() if len(w) >= 2]
    for n in members:
        for _ in range(3):
            s = n[rng.randrange(1, len(n)):]
            a = Word(tuple(rng.randrange(2) for _ in range(rng.randint(1, 2))), BINARY)
            k = math.floor(math.log2(len(n))) + 1
            if 2**k <= len(n):
                k += 1
            assert sn_ka_check(n, s, a, k)


def test_squared_prefix_blocks_membership():
    # doubling any nonempty proper prefix a of a member ab and prepending
    # it (a.a.ab) always leaves membership
    for w in enumerate_nyldon(BINARY, 10).words():
        for i in range(1, len(w)):
            assert not is_nyldon((w[:i] * 2) + w)


def test_sn_ka_check_validation():
    n = Word.parse("10")
    with pytest.raises(ValueError):
        sn_ka_check(Word.parse("11"), Word.parse("1"), Word.parse("0"), 5)
    with pytest.raises(ValueError):
        sn_ka_check(n, Word.parse("1"), Word.parse("0"), 5)  # 1 not a suffix of 10
    with pytest.raises(ValueError):
        sn_ka_check(n, Word.parse("0"), Word.parse("0"), 1)  # 2^1 = 2 is not > 2


def test_lyndon_suffix_check_small():
    assert lyndon_suffix_check(BINARY, 10)
    assert lyndon_suffix_check(TERNARY, 6)


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records the workers asked for and
    maps in this process, so no worker is ever started."""

    asked: list = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("cores, expected", [(3, [3]), (1, []), (None, [])])
def test_pools_start_no_more_workers_than_cores_or_tasks(monkeypatch, cores, expected):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_InProcessPool, "asked", [])
    # a fork pool starts all of max_workers on its first submit
    assert k_bound_scan(BINARY, 4, jobs=100_000) == k_bound_scan(BINARY, 4)
    assert _InProcessPool.asked == expected
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 64)
    k_bound_scan(BINARY, 4, jobs=100_000)  # 8 Lyndon words up to length 4
    assert _InProcessPool.asked[len(expected) :] == [8]


def test_fixed_length_code_is_the_generated_sets_layer():
    # one conjugate per Lyndon word of the length gives exactly the members
    # of that length that generation finds
    for alphabet, max_len in ((BINARY, 14), (TERNARY, 8)):
        words = generate(LEX, alphabet, max_len).words()
        for length in range(1, max_len + 1):
            expected = [w for w in words if len(w) == length]
            got = analysis.fixed_length_code(alphabet, length)
            assert got == expected, (alphabet.size, length)
    with pytest.raises(ValueError):
        analysis.fixed_length_code(BINARY, 0)
