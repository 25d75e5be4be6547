"""Command-line front end.

Subcommands: factor, is-member, conjugate, trace, enumerate, verify-hall,
lazard, circular-check, power-scan, lyndon-check, selftest, bench.

Exit codes: 0 on success, 1 on domain errors (periodic input, order-policy
violations, budget caps) with a one-line ``error: ...`` diagnostic on stderr,
2 on usage errors (unknown flags or policies, malformed words, out-of-range
values).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import analysis, fastfactor, hallsets, lazard, melancon, oracle
from .errors import NyldonError
from .order import LEX, CountingPolicy, OrderPolicy, get_policy
from .words import Alphabet, Word


def _alphabet(args: argparse.Namespace) -> Alphabet:
    return Alphabet(args.alphabet)


def _word(text: str, alphabet: Alphabet) -> Word:
    return Word.parse(text, alphabet)


def _policy(args: argparse.Namespace) -> OrderPolicy:
    try:
        return get_policy(args.policy)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _factor_with(word: Word, policy: OrderPolicy, algorithm: str):
    if algorithm == "fast":
        if policy.id != "lex":
            raise NyldonError("algorithm 'fast' supports only the lex policy")
        return fastfactor.nyldon_factorize(word)
    if algorithm == "naive":
        if policy.id != "lex":
            raise NyldonError("algorithm 'naive' supports only the lex policy")
        return oracle.nyldon_factorization_bruteforce(word)
    return melancon.factorize(word, policy)


def _cmd_factor(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args)
    word = _word(args.word, alphabet)
    policy = _policy(args)
    lines: list[str] = []
    payload: dict = {"word": str(word)}
    if args.trace:
        trace = melancon.contraction_trace(word, policy, mode="linear")
        snapshots = [[str(b) for b in snap] for snap in trace]
        payload["snapshots"] = snapshots
        lines.extend(", ".join(snap) for snap in snapshots)
        factors = [str(f) for f in trace.factorization.factors]
    else:
        factors = [str(f) for f in _factor_with(word, policy, args.algorithm).factors]
    payload["factors"] = factors
    if args.trace:
        lines.append("factors: " + " ".join(factors))
    else:
        lines.append(" ".join(factors))
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_is_member(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args)
    word = _word(args.word, alphabet)
    policy = _policy(args)
    if args.algorithm == "fast":
        if policy.id != "lex":
            raise NyldonError("algorithm 'fast' supports only the lex policy")
        member = fastfactor.is_nyldon(word)
    elif args.algorithm == "naive":
        if policy.id == "lex":
            member = oracle.is_nyldon_bruteforce(word)
        else:
            gset = oracle.enumerate_members(word.alphabet, len(word), policy)
            member = oracle.is_member_bruteforce(word, gset)
    else:
        member = len(melancon.factorize(word, policy).factors) == 1
    _emit(
        args,
        {"word": str(word), "member": member},
        "true" if member else "false",
    )
    return 0


def _cmd_conjugate(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args)
    word = _word(args.word, alphabet)
    policy = _policy(args)
    variant = "phases" if args.algorithm == "naive" else "pq"
    if args.trace:
        trace = melancon.contraction_trace(word, policy, mode="circular")
        conj = trace.conjugate
        snapshots = [[str(b) for b in snap] for snap in trace]
        text = "\n".join(", ".join(snap) for snap in snapshots)
        _emit(
            args,
            {"word": str(word), "conjugate": str(conj), "snapshots": snapshots},
            text,
        )
    else:
        conj = melancon.conjugate(word, policy, variant=variant)
        _emit(args, {"word": str(word), "conjugate": str(conj)}, str(conj))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args)
    word = _word(args.word, alphabet)
    policy = _policy(args)
    trace = melancon.contraction_trace(word, policy, mode="circular")
    snapshots = [[str(b) for b in snap] for snap in trace]
    _emit(
        args,
        {
            "word": str(word),
            "conjugate": str(trace.conjugate),
            "snapshots": snapshots,
        },
        "\n".join(", ".join(snap) for snap in snapshots),
    )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args)
    policy = _policy(args)
    gset = hallsets.generate(
        policy, alphabet, args.max_len, validate=not args.no_validate
    )
    words = [str(w) for w in gset.words()]
    counts = {str(k): v for k, v in sorted(gset.counts_by_length().items())}
    _emit(
        args,
        {
            "alphabet_size": alphabet.size,
            "max_len": args.max_len,
            "policy": policy.id,
            "counts_by_length": counts,
            "words": words,
        },
        "\n".join(words),
    )
    return 0


def _cmd_verify_hall(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args)
    policy = _policy(args)
    gset = hallsets.generate(policy, alphabet, args.max_len, validate=False)
    verdict = hallsets.verify_hall(gset, policy)
    payload = verdict.to_dict()
    lines = [
        f"policy: {verdict.policy_id}",
        f"factorization: {str(verdict.is_factorization).lower()}",
        f"right_hall: {str(verdict.is_right_hall).lower()}",
        f"left_hall: {str(verdict.is_left_hall).lower()}",
        f"viennot: {str(verdict.is_viennot).lower()}",
        f"growth_clause: {str(verdict.nyldon_like_ok).lower()}",
    ]
    for f, g, clause in verdict.counterexamples[:5]:
        lines.append(f"counterexample[{clause}]: f={f} g={g}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_lazard(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args)
    states = lazard.lazard_run(alphabet, args.max_len)
    report = lazard.finishing_step(states)
    payload = report.to_dict()
    lines: list[str] = []
    if args.trace:
        payload["trace"] = []
        for st in states:
            members = sorted(st.current, key=lambda w: (len(w), w.letters))
            row = [str(w) for w in members]
            payload["trace"].append(
                {"step": st.step, "set": row, "chosen": str(st.chosen_word)}
            )
            lines.append(
                f"{st.step} | {{{', '.join(row)}}} | {st.chosen_word}"
            )
    if args.kraft is not None:
        payload["kraft"] = []
        for st in states:
            value = lazard.kraft_sum(st, args.kraft)
            payload["kraft"].append(
                {"step": st.step, "sum": f"{value.numerator}/{value.denominator}"}
            )
            lines.append(f"kraft step {st.step}: {value}")
    lines.append(
        f"total_steps: {report.total_steps}  finishing_step: {report.finishing_step}  "
        f"stop_word: {report.stop_word}  words_after_stop: {report.words_after_stop}"
    )
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_circular_check(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args)
    gset = hallsets.generate(get_policy("lex"), alphabet, args.length)
    code = [w for w in gset.words() if len(w) == args.length]
    verdict = analysis.circular_code_check(code, args.max_blocks)
    payload = verdict.to_dict()
    payload["length"] = args.length
    payload["max_blocks"] = args.max_blocks
    if verdict.is_circular:
        text = f"circular: true ({len(code)} codewords, max_blocks {args.max_blocks})"
    else:
        seq, off = verdict.witness
        text = (
            f"circular: false  witness: ({', '.join(str(w) for w in seq)}) "
            f"rotated by {off}"
        )
    _emit(args, payload, text)
    return 0


def _cmd_power_scan(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args)
    report = analysis.k_bound_scan(alphabet, args.max_len, jobs=args.jobs)
    payload = report.to_dict()
    lines = [
        f"words: {report.word_count}  k: {report.k}  max_K: {report.max_K}",
        "histogram: "
        + ", ".join(f"K={k}: {v}" for k, v in sorted(report.histogram.items())),
        f"violations: {len(report.violations)}",
        f"no_central: {len(report.no_central)}",
    ]
    _emit(args, payload, "\n".join(lines))
    return 0 if not report.violations else 1


def _cmd_lyndon_check(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args)
    ok = analysis.lyndon_suffix_check(alphabet, args.max_len, jobs=args.jobs)
    _emit(
        args,
        {"alphabet_size": alphabet.size, "max_len": args.max_len, "ok": ok},
        f"ok: {str(ok).lower()}",
    )
    return 0 if ok else 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import acceptance

    results = acceptance.run_all()
    failures = 0
    for res in results:
        line = acceptance.format_result(res)
        print(line)
        if not res.ok:
            failures += 1
    if args.json:
        print(json.dumps([res.to_dict() for res in results], indent=2))
    return 0 if failures == 0 else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args)
    rng = random.Random(0xBE7C)
    print("n,algorithm,comparisons,nanos")
    n = 64
    while n <= args.max_len:
        letters = tuple(rng.randrange(alphabet.size) for _ in range(n))
        word = Word(letters, alphabet)
        for algorithm in ("fast", "melancon"):
            start = time.perf_counter_ns()
            if algorithm == "fast":
                _, comparisons = fastfactor.factorize_with_stats(word)
            else:
                counted = CountingPolicy(LEX)
                melancon.factorize(word, counted)
                comparisons = counted.calls
            nanos = time.perf_counter_ns() - start
            print(f"{n},{algorithm},{comparisons},{nanos}")
        n *= 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nyldon",
        description="Factorizations, conjugates, generated sets, elimination "
        "runs, and code checks for Nyldon-style word families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, word_arg: bool = False) -> None:
        if word_arg:
            p.add_argument("word", help="word in shared text syntax")
        p.add_argument("--alphabet", type=int, default=2, metavar="K",
                       help="alphabet size (default 2)")
        p.add_argument("--policy", default="lex", metavar="ID",
                       help="order policy id (default lex)")
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("factor", help="factorization into members")
    common(p, word_arg=True)
    p.add_argument("--algorithm", choices=("naive", "fast", "melancon"),
                   default="fast")
    p.add_argument("--trace", action="store_true",
                   help="print contraction snapshots before the factors")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("is-member", help="membership test")
    common(p, word_arg=True)
    p.add_argument("--algorithm", choices=("naive", "fast", "melancon"),
                   default="fast")
    p.set_defaults(func=_cmd_is_member)

    p = sub.add_parser("conjugate", help="distinguished conjugate of a primitive word")
    common(p, word_arg=True)
    p.add_argument("--algorithm", choices=("naive", "fast", "melancon"),
                   default="fast")
    p.add_argument("--trace", action="store_true",
                   help="print contraction snapshots")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("trace", help="circular contraction snapshots")
    common(p, word_arg=True)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("enumerate", help="list members up to a length")
    common(p)
    p.add_argument("--max-len", type=int, required=True, metavar="N")
    p.add_argument("--no-validate", action="store_true",
                   help="skip the growth-clause check (needed for rlex)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify-hall", help="Hall/Viennot verdict for a policy")
    common(p)
    p.add_argument("--max-len", type=int, required=True, metavar="N")
    p.set_defaults(func=_cmd_verify_hall)

    p = sub.add_parser("lazard", help="elimination run with optional trace")
    common(p)
    p.add_argument("--max-len", type=int, required=True, metavar="N")
    p.add_argument("--trace", action="store_true", help="print the step table")
    p.add_argument("--kraft", type=int, default=None, metavar="L",
                   help="print exact truncated sums at length L")
    p.set_defaults(func=_cmd_lazard)

    p = sub.add_parser("circular-check", help="circularity of the fixed-length code")
    common(p)
    p.add_argument("--length", type=int, required=True, metavar="L")
    p.add_argument("--max-blocks", type=int, default=3, metavar="B")
    p.set_defaults(func=_cmd_circular_check)

    p = sub.add_parser("power-scan", help="power-factorization deficit scan")
    common(p)
    p.add_argument("--max-len", type=int, required=True, metavar="N")
    p.add_argument("--jobs", type=int, default=1, metavar="J")
    p.set_defaults(func=_cmd_power_scan)

    p = sub.add_parser("lyndon-check", help="Lyndon suffix criterion sweep")
    common(p)
    p.add_argument("--max-len", type=int, required=True, metavar="N")
    p.add_argument("--jobs", type=int, default=1, metavar="J")
    p.set_defaults(func=_cmd_lyndon_check)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("bench", help="CSV timing/comparison trends")
    common(p)
    p.add_argument("--max-len", type=int, default=8192, metavar="N")
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NyldonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
