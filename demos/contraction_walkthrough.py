"""Step through the contraction algorithm on the 14-letter showcase word.

The circular form starts from the letters of w arranged in a cycle and
repeatedly merges each locally smallest block into its left neighbour; when
one block remains, that block is the unique rotation of w lying in the
member set. The linear form runs the same contraction on a straight line
of blocks and ends in the factorization instead.
"""

from nyldon import Word, contraction_trace, is_nyldon

WORD = "10001011010101"


def show(mode: str) -> None:
    trace = contraction_trace(Word.parse(WORD), mode=mode)
    print(f"{mode} contraction of {WORD}")
    print("-" * 46)
    for step, snapshot in enumerate(trace, start=1):
        print(f"  pass {step}: " + ", ".join(str(b) for b in snapshot))
    if mode == "circular":
        conj = trace.conjugate
        print(f"  => conjugate {conj} (member: {is_nyldon(conj)})")
    else:
        factors = " . ".join(str(f) for f in trace.factorization.factors)
        print(f"  => factorization {factors}")
    print()


def main() -> None:
    show("circular")
    show("linear")
    print("note: the first four passes coincide; the circular run is allowed")
    print("to merge across the wrap-around, the linear run is not.")


if __name__ == "__main__":
    main()
