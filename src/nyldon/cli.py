"""Command-line front end.

Subcommands: factor, is-member, conjugate, trace, enumerate, verify-hall,
lazard, circular-check, power-scan, lyndon-check, selftest. Each is one row
of `_COMMANDS`. A process builds only the subparser of the command it runs;
help and a missing or unknown command build them all.

Exit codes: 0 on success, 1 on domain errors (periodic input, order-policy
violations, budget caps) and on a failed write to stdout (a closed pipe, a
full disk), ``--help`` included, 2 on usage errors (unknown flags, commands
or policies, missing arguments, malformed words, out-of-range values). Each
failure prints one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

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

    def error(self, message):
        # one line, without argparse's usage block; exit() raises SystemExit(2)
        self.exit(2, f"error: {message}\n")


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
    if args.trace:
        # one elimination serves the trace and the summary
        run = lazard.lazard_run(alphabet, args.max_len)
        report = lazard.finishing_step(run)
    else:
        report = lazard.lazard_report(alphabet, args.max_len)
    payload = report.to_dict()
    lines: list[str] = []
    if args.kraft is not None:
        # Each step's sum is exact over s^L, from L counts of up to L base-s
        # digits each, so the sums cost about steps * L^2.
        what = "--kraft {} sums over {} steps would cost"
        cost = report.total_steps * args.kraft**2
        check_budget(
            cost, DEFAULT_WORD_BUDGET, what, args.kraft, report.total_steps,
            unit="steps x L^2",
        )
    if args.trace:
        payload["trace"] = []
        for st in run:  # only the trace iterates the states
            members = sorted(st.current, key=lambda w: (len(w), w.letters))
            row = [str(w) for w in members]
            payload["trace"].append(
                {"step": st.step, "set": row, "chosen": str(st.chosen_word)}
            )
            lines.append(f"{st.step} | {{{', '.join(row)}}} | {st.chosen_word}")
    if args.kraft is not None:
        payload["kraft"] = []
        for step, value in enumerate(lazard.kraft_sums(report, args.kraft), 1):
            payload["kraft"].append(
                {"step": step, "sum": f"{value.numerator}/{value.denominator}"}
            )
            lines.append(f"kraft step {step}: {value}")
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
    ok = analysis.lyndon_suffix_check(alphabet, args.max_len)
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


def _arg(name: str, **spec) -> tuple[str, dict]:
    """One argument: its name and its `add_argument` keywords."""
    return name, spec


_JSON = _arg("--json", action="store_true", help="JSON output")
_COMMON = (
    _arg("--alphabet", type=int, default=2, metavar="K", help="alphabet size (default 2)"),
    _arg("--policy", default="lex", metavar="ID", help="order policy id (default lex)"),
    _JSON,
)
_WORD_ARGS = (_arg("word", help="word in shared text syntax"), *_COMMON)
_ALGORITHM = _arg("--algorithm", choices=("naive", "fast", "melancon"), default="fast")
_MAX_LEN = _arg("--max-len", type=int, required=True, metavar="N")

# One row per subcommand: help, handler, arguments in order, and defaults.
_COMMANDS = {
    "factor": ("factorization into members", _cmd_factor, (
        *_WORD_ARGS, _ALGORITHM,
        _arg("--trace", action="store_true",
             help="print contraction snapshots before the factors"),
    ), {}),
    "is-member": ("membership test", _cmd_is_member, (*_WORD_ARGS, _ALGORITHM), {}),
    "conjugate": ("distinguished conjugate of a primitive word", _cmd_conjugate, (
        *_WORD_ARGS, _ALGORITHM,
        _arg("--trace", action="store_true", help="print contraction snapshots"),
    ), {}),
    "trace": ("circular contraction snapshots", _cmd_conjugate, _WORD_ARGS, {"trace": True}),
    "enumerate": ("list members up to a length", _cmd_enumerate, (
        *_COMMON, _MAX_LEN,
        _arg("--no-validate", action="store_true",
             help="skip the growth-clause check (needed for rlex)"),
    ), {}),
    "verify-hall": ("Hall/Viennot verdict for a policy", _cmd_verify_hall,
                    (*_COMMON, _MAX_LEN), {}),
    "lazard": ("elimination run with optional trace", _cmd_lazard, (
        *_COMMON, _MAX_LEN,
        _arg("--trace", action="store_true", help="print the step table"),
        _arg("--kraft", type=int, metavar="L", help="print exact truncated sums at length L"),
    ), {}),
    "circular-check": ("circularity of the fixed-length code", _cmd_circular_check,
                       (*_COMMON, _arg("--length", type=int, required=True, metavar="L")), {}),
    "power-scan": ("power-factorization deficit scan", _cmd_power_scan, (
        *_COMMON, _MAX_LEN, _arg("--jobs", type=int, default=1, metavar="J"),
    ), {}),
    "lyndon-check": ("Lyndon suffix criterion sweep", _cmd_lyndon_check,
                     (*_COMMON, _MAX_LEN), {}),
    "selftest": ("run the acceptance suite", _cmd_selftest, (_JSON,), {}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of `command` only, or with every
    subparser when `command` is None."""
    parser = _Parser(
        prog="nyldon",
        description="Factorizations, conjugates, generated sets, elimination "
        "runs, and code checks for Nyldon-style word families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else (command,):
        help_text, handler, arguments, defaults = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for arg_name, spec in arguments:
            p.add_argument(arg_name, **spec)
        p.set_defaults(func=handler, **defaults)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # help and a missing or unknown command list every subcommand
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
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
