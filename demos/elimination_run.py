"""The elimination procedure, its finishing step, and exact code sums.

Starting from the alphabet, each step removes the least word u of the
working set and appends u* to every survivor. Restricted to words of length
at most n, the run removes every member exactly once; after a short
"finishing step" the truncated working set stops changing shape and the
procedure only drains it. Each working set is a uniquely decodable code
whose length-weighted sum converges to 1 exactly.
"""

from nyldon import (
    BINARY,
    kraft_sums,
    lazard_code_check,
    lazard_report,
    lazard_run,
    predicted_stop_word,
)


def main() -> None:
    n = 5
    states = lazard_run(BINARY, n)
    report = lazard_report(BINARY, n)

    print(f"binary run truncated at length {n}: {report.total_steps} steps")
    print("step | working set (truncated) | removed")
    print("-" * 66)
    for st in states:
        members = sorted(st.current, key=lambda w: (len(w), w.letters))
        row = ", ".join(str(w) for w in members)
        print(f"{st.step:>4} | {row:<47} | {st.chosen_word}")

    print()
    print(f"finishing step: {report.finishing_step}")
    print(f"stop word:      {report.stop_word}")
    print(f"removed after the stop word: {report.words_after_stop}")

    print()
    print("exact truncated sums (sum over the working set of 2^-|y|):")
    sums = kraft_sums(report, 40)
    for st in states[:4] + states[-2:]:
        value = sums[st.step - 1]
        gap = 1 - value
        decodes = bool(lazard_code_check(st, 10))
        print(
            f"  step {st.step:>2}: 1 - sum = {float(gap):.2e}"
            f"  (uniquely decodable at L=10: {decodes})"
        )

    print()
    print("stop words are predictable in closed form:")
    for length in (5, 6, 7, 9, 10, 11):
        measured = lazard_report(BINARY, length).stop_word
        predicted = predicted_stop_word(BINARY, length)
        mark = "==" if measured == predicted else "!="
        print(f"  length {length:>2}: measured {measured} {mark} predicted {predicted}")


if __name__ == "__main__":
    main()
