"""Command-line front end.

Subcommands: factor, is-member, conjugate, trace, enumerate, verify-hall,
lazard, circular-check, power-scan, lyndon-check, selftest, bench.

Exit codes: 0 on success, 1 on domain errors (periodic input, order-policy
violations, budget caps) and on a failed write to stdout (a closed pipe, a
full disk), ``--help`` included, with a one-line ``error: ...`` diagnostic on
stderr, 2 on usage errors (unknown flags or policies, malformed words,
out-of-range values).
"""

from __future__ import annotations

import argparse
import sys
import time

# Only what every subcommand needs is imported here. Each handler imports the
# modules it runs, so a process pays for no other module's import.
from .errors import DEFAULT_WORD_BUDGET, InvariantError, NotPrimitiveError, NyldonError
from .errors import check_budget
from .order import OrderPolicy, get_policy
from .words import Alphabet, Factorization, Word, is_primitive, minimal_period


def _alphabet(args: argparse.Namespace) -> Alphabet:
    return Alphabet(args.alphabet)


def _word(text: str, alphabet: Alphabet) -> Word:
    return Word.parse(text, alphabet)


def _policy(args: argparse.Namespace) -> OrderPolicy:
    try:
        return get_policy(args.policy)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


class _StdoutError(Exception):
    """A write to stdout failed with the OSError in args[0]."""


def _print(text: str, end: str = "\n", flush: bool = False) -> None:
    """print() to stdout. A failed write raises _StdoutError, which `main`
    turns into one error line; any other OSError keeps its traceback."""
    try:
        print(text, end=end, flush=flush)
    except OSError as exc:
        raise _StdoutError(exc) from None


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        if file is sys.stdout:  # argparse drops a failed write and exits 0
            _print(message, end="", flush=True)
        else:
            super()._print_message(message, file)


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        import json

        _print(json.dumps(payload, indent=2))
    else:
        _print(text)


def _naive_member(policy: OrderPolicy, word: Word, what: str):
    """Membership of words as long as `word`, from the definition: the
    oracle under lex, its recursion under `policy` otherwise. Capped at 64
    letters, as the brute-force factorization is."""
    if len(word) > 64:
        raise ValueError(f"brute-force {what} capped at length 64")
    if policy.id == "lex":
        from .oracle import is_nyldon_bruteforce

        return is_nyldon_bruteforce
    from .oracle import member_by_recursion

    return member_by_recursion(policy)


def _naive_conjugate(word: Word, policy: OrderPolicy) -> Word:
    """The rotation of a primitive `word` that `_naive_member` accepts."""
    is_member = _naive_member(policy, word, "conjugate")
    if not is_primitive(word):
        raise NotPrimitiveError(word, minimal_period(word))
    for offset in range(len(word)):
        rotation = word.rotate(offset)
        if is_member(rotation):
            return rotation
    raise InvariantError(f"no rotation of {word} is a member")


def _run_engine(
    word: Word, policy: OrderPolicy, algorithm: str, member: bool
) -> Factorization | bool:
    """The factorization of `word` (member=False) or whether it is a member
    (member=True), by the --algorithm engine. fast and naive know only lex,
    except that naive tests membership under any policy."""
    if algorithm == "melancon":
        from .melancon import factorize

        fact = factorize(word, policy)
        return len(fact.factors) == 1 if member else fact
    if algorithm == "naive" and member:
        return _naive_member(policy, word, "membership")(word)
    if policy.id != "lex":
        raise NyldonError(f"algorithm '{algorithm}' supports only the lex policy")
    if algorithm == "naive":
        from .oracle import nyldon_factorization_bruteforce

        return nyldon_factorization_bruteforce(word)
    from .fastfactor import is_nyldon, nyldon_factorize

    return is_nyldon(word) if member else nyldon_factorize(word)


def _cmd_factor(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args)
    word = _word(args.word, alphabet)
    policy = _policy(args)
    lines: list[str] = []
    payload: dict = {"word": str(word)}
    if args.trace:
        from . import melancon

        trace = melancon.contraction_trace(word, policy, mode="linear")
        snapshots = [[str(b) for b in snap] for snap in trace]
        payload["snapshots"] = snapshots
        lines.extend(", ".join(snap) for snap in snapshots)
        factors = [str(f) for f in trace.factorization.factors]
    else:
        fact = _run_engine(word, policy, args.algorithm, member=False)
        factors = [str(f) for f in fact.factors]
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
    member = _run_engine(word, policy, args.algorithm, member=True)
    _emit(
        args,
        {"word": str(word), "member": member},
        "true" if member else "false",
    )
    return 0


def _cmd_conjugate(args: argparse.Namespace) -> int:
    from . import melancon

    alphabet = _alphabet(args)
    word = _word(args.word, alphabet)
    policy = _policy(args)
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
        run = _naive_conjugate if args.algorithm == "naive" else melancon.conjugate
        conj = run(word, policy)
        _emit(args, {"word": str(word), "conjugate": str(conj)}, str(conj))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from . import hallsets

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
    from . import hallsets

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
    from . import lazard

    alphabet = _alphabet(args)
    if args.kraft is not None and args.kraft < 1:
        raise ValueError("--kraft must be at least 1")
    if args.trace or args.kraft is not None:
        # one elimination: the summary comes from the snapshots themselves
        states = lazard.lazard_run(alphabet, args.max_len)
        report = lazard.finishing_step(states)
    else:
        states = []
        report = lazard.lazard_report(alphabet, args.max_len)
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
        # Each step's sum is exact over s^L, from L counts of up to L base-s
        # digits each, so the sums cost about steps * L^2.
        what = "--kraft {} sums over {} steps would cost"
        cost = len(states) * args.kraft**2
        check_budget(
            cost, DEFAULT_WORD_BUDGET, what, args.kraft, len(states), unit="steps x L^2"
        )
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
    from . import analysis

    code = analysis.fixed_length_code(_alphabet(args), args.length)
    verdict = analysis.circular_code_check(code)
    payload = verdict.to_dict()
    payload["length"] = args.length
    if verdict.is_circular:
        text = f"circular: true ({len(code)} codewords)"
    else:
        seq, off = verdict.witness
        text = (
            f"circular: false  witness: ({', '.join(str(w) for w in seq)}) "
            f"rotated by {off}"
        )
    _emit(args, payload, text)
    return 0


def _cmd_power_scan(args: argparse.Namespace) -> int:
    from . import analysis

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
    from . import analysis

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
        _print(line)
        if not res.ok:
            failures += 1
    if args.json:
        import json

        _print(json.dumps([res.to_dict() for res in results], indent=2))
    return 0 if failures == 0 else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import random

    from . import fastfactor, melancon
    from .order import LEX, CountingPolicy

    alphabet = _alphabet(args)
    rng = random.Random(0xBE7C)
    _print("n,algorithm,comparisons,nanos")
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
            _print(f"{n},{algorithm},{comparisons},{nanos}")
        n *= 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.set_defaults(func=_cmd_conjugate, trace=True)

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
    try:
        code = run(argv)
        try:
            sys.stdout.flush()  # a short output's failed write shows here
        except OSError as exc:
            raise _StdoutError(exc) from None
        return code
    except _StdoutError as failure:
        import os

        # Point stdout at devnull so the interpreter's exit flush of what is
        # still buffered does not fail again (the `signal` module docs' recipe).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        exc = failure.args[0]
        if isinstance(exc, BrokenPipeError):
            reason = "stdout was closed before the output was written"
        else:
            reason = f"cannot write to stdout: {exc.strerror or exc}"
        print(f"error: {reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
