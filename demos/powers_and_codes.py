"""Power factorizations, the deficit bound, and circular codes.

Raising a primitive word w to a power k and factorizing gives a run of
copies of w's distinguished conjugate n in the middle; the deficit
K = k - (number of central copies) stays below log2|w| + 1. Separately,
the members of one fixed length form a circular code: no concatenation of
codewords re-parses after a nontrivial rotation.
"""

from nyldon import (
    BINARY,
    Word,
    circular_code_check,
    enumerate_nyldon,
    k_bound_scan,
    power_profile,
    rotation_parse,
)


def main() -> None:
    w = Word.parse("01111011011111011110111")
    profile = power_profile(w, 5)
    print(f"w = {w} (|w| = {len(w)})")
    print(f"conjugate n = {profile.n}")
    print(f"factors of w^5: {len(profile.prefix_factors)} prefix factor(s), "
          f"{profile.central_copies} central cop(ies) of n, "
          f"{len(profile.suffix_factors)} suffix factor(s)")
    print(f"deficit K = {profile.K} (bound: floor(log2 {len(w)}) + 1 = 5)")

    print()
    report = k_bound_scan(BINARY, 10)
    print(f"scan of all {report.word_count} primitive classes with |w| <= 10 "
          f"at k = {report.k}:")
    print(f"  histogram of K: {dict(sorted(report.histogram.items()))}")
    print(f"  max K = {report.max_K}, violations = {len(report.violations)}")

    print()
    for length in (2, 3, 4):
        code = [
            x for x in enumerate_nyldon(BINARY, length).words()
            if len(x) == length
        ]
        verdict = circular_code_check(code)
        names = ", ".join(str(x) for x in code)
        print(f"members of length {length} {{{names}}}: "
              f"circular = {verdict.is_circular}")

    print()
    bad = [Word.parse(t) for t in ("00", "01", "10")]
    verdict = circular_code_check(bad)
    seq, offset = verdict.witness
    reparse = rotation_parse(bad, seq, offset)
    print("the code {00, 01, 10} is not circular:")
    print(f"  witness: ({', '.join(str(x) for x in seq)}) rotated by {offset}")
    print(f"  re-parses as: ({', '.join(str(x) for x in reparse)})")


if __name__ == "__main__":
    main()
