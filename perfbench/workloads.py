"""The three workloads. Each is a closed loop: one caller in one process runs a
fixed list of operations (a pass) again and again, and each operation starts
only when the previous one has returned.

Every operation goes through a public function of the package, or through the
real CLI. `ops` yields (label, thunk) pairs; a label names the same operation
on the same input in every pass, so a repeat can be checked against the first
answer. `check` runs after the operation's clock has stopped.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import subprocess
import sys

from nyldon import BINARY, LEX, RLEX, TERNARY, Word
from nyldon import analysis, cli, fastfactor, hallsets, lazard, melancon, oracle

import gate as g

# ROADMAP item 4 shows predicted_stop_word and count_words_after_stop are
# wrong at some lengths, so no check here relies on them.
LAZARD_GOLDEN = {
    # (alphabet size, max length): (total_steps, finishing_step, stop_word, words_after_stop)
    (2, 15): (4720, 4229, "1011111", 492),
    (2, 20): (111013, 106962, "1011111110", 4052),
    (3, 11): (25486, 24436, "21222", 1051),
}
HALL_GOLDEN = {
    # policy: (factorization, right Hall, left Hall, Viennot, growth clause)
    "lex": (True, True, False, False, True),
    "rlex": (True, True, True, True, False),
}
CLI_LAZARD_8 = "total_steps: 71  finishing_step: 46  stop_word: 101  words_after_stop: 26\n"


def _report_tuple(report) -> tuple:
    return (report.total_steps, report.finishing_step, str(report.stop_word), report.words_after_stop)


class Workload:
    # op_p50_ms/op_p90_ms over every sample (True) or over per-operation
    # medians (False, for a mix of operations of very different cost).
    LATENCY_PER_SAMPLE = False

    def __init__(self) -> None:
        self._seen: dict[str, object] = {}

    def ops(self, pass_no: int, last: list):
        raise NotImplementedError

    def check(self, gate: g.Gate, label: str, result) -> None:
        """Full check the first time a label is seen, then an equality check
        of the result's digest against the first answer."""
        digest = self.digest(label, result)
        if label in self._seen:
            gate.check(self._seen[label] == digest, f"{label}: answer changed on repeat")
            return
        self._seen[label] = digest
        self.first_check(gate, label, result)

    def digest(self, label: str, result):
        return result

    def first_check(self, gate: g.Gate, label: str, result) -> None:
        raise NotImplementedError

    def once(self, gate: g.Gate) -> None:
        """Checks that call the program outside the timed operations."""

    def summary(self, samples: list[tuple]) -> dict[str, tuple[float, str]]:
        return {}


def _lengths(fact) -> tuple[int, ...]:
    return tuple(len(f) for f in fact.factors)


class FactorLong(Workload):
    """Library use on long words: the stack factorizer on nine families at
    10^3..10^5 letters, and contraction on the same families at 10^3."""


    # Counting comparisons means a second factorization; above this size the
    # untraced run leaves the 2n-1 check to the traced run, which gets the
    # count from its factor_ranges spans.
    COMPARISON_CHECK_MAX_N = 10**4

    def __init__(self, inputs, lex=LEX) -> None:
        super().__init__()
        self.factor_inputs, self.conj_inputs = inputs
        self.lex = lex
        self.conj_size = len(self.conj_inputs[0][1])
        self._words = {}
        for name, n, w in self.factor_inputs:
            self._words[f"fastfactor.nyldon_factorize {name} {n}"] = w
            self._words[f"fastfactor.is_nyldon {name} {n}"] = w
            if n == self.conj_size:
                self._words[f"melancon.factorize {name}"] = w
        for name, w in self.conj_inputs:
            self._words[f"melancon.conjugate {name}"] = w

    def ops(self, pass_no, last):
        for name, n, w in self.factor_inputs:
            yield f"fastfactor.nyldon_factorize {name} {n}", lambda w=w: fastfactor.nyldon_factorize(w)
            yield f"fastfactor.is_nyldon {name} {n}", lambda w=w: fastfactor.is_nyldon(w)
        for name, n, w in self.factor_inputs:
            if n == self.conj_size:
                yield f"melancon.factorize {name}", lambda w=w: melancon.factorize(w, self.lex)
        for name, w in self.conj_inputs:
            yield f"melancon.conjugate {name}", lambda w=w: melancon.conjugate(w, self.lex)

    def digest(self, label, result):
        if label.startswith(("fastfactor.nyldon_factorize", "melancon.factorize")):
            return _lengths(result)
        if label.startswith("melancon.conjugate"):
            return result.letters
        return result

    def first_check(self, gate, label, result):
        word = self._words[label]
        kind, name = label.split()[:2]
        n = len(word)
        if kind == "fastfactor.nyldon_factorize":
            g.check_factorization(gate, label, word, result)
            if n <= self.COMPARISON_CHECK_MAX_N:
                ranges, comparisons = fastfactor.factor_ranges(word.letters)
                g.check_comparisons(gate, label, n, comparisons)
                gate.check(
                    tuple(b - a for a, b in ranges) == _lengths(result),
                    f"{label}: factor_ranges disagrees with the factorization",
                )
        elif kind == "fastfactor.is_nyldon":
            fact = self._seen.get(f"fastfactor.nyldon_factorize {name} {n}")
            gate.check(
                fact is not None and result == (len(fact) == 1),
                f"{label}: disagrees with the factor count",
            )
        elif kind == "melancon.factorize":
            g.check_factorization(gate, label, word, result)
            gate.check(
                _lengths(result) == self._seen.get(f"fastfactor.nyldon_factorize {name} {n}"),
                f"{label}: differs from the stack factorizer",
            )
        else:
            g.check_conjugate(gate, label, word, result)

    def summary(self, samples):
        """Throughput and worst-family figures for factor-long, from per-label
        medians of wall time across passes."""
        times: dict[str, list[float]] = {}
        for _, label, seconds, _ in samples:
            times.setdefault(label, []).append(seconds)
        med = {label: statistics.median(v) for label, v in times.items()}
        largest = max(n for _, n, _ in self.factor_inputs)
        out = {}
        for prefix, kinds, size in (
            ("factor", ("fastfactor.nyldon_factorize", "fastfactor.is_nyldon"), largest),
            ("conjugate", ("melancon.factorize", "melancon.conjugate"), self.conj_size),
        ):
            mine = {label: s for label, s in med.items() if label.split()[0] in kinds}
            letters = sum(len(self._words[label]) for label in mine)
            families: dict[str, float] = {}
            for label, s in mine.items():
                if len(self._words[label]) == size:
                    name = label.split()[1]
                    families[name] = families.get(name, 0.0) + s
            worst = max(families, key=families.get)
            out[f"{prefix}_letters_per_s"] = (letters / sum(mine.values()), "letters/s wall")
            out[f"{prefix}_worst_family_ms"] = (families[worst] * 1000, f"ms wall ({worst})")
        return out


class CliShort(Workload):
    """A person at a shell: real `python -m nyldon.cli` processes, one after
    another, on seeded short words plus a fixed enumerate and lazard call."""

    WORDS_PER_PASS = 2
    LATENCY_PER_SAMPLE = True  # per-process wall time; every spawn costs about the same
    MIN_SPAWNS = 100  # p90 then has at least ten samples beyond it

    def __init__(self, words: list[str], src: str, mode: str = "spawn") -> None:
        super().__init__()
        self.words = words
        self.mode = mode
        self.cwd = os.path.dirname(src)
        self.env = dict(os.environ, PYTHONPATH=src)
        self.peak_rss_kb = 0
        self.expected: dict[str, str] = {}
        self.conjugates: dict[str, str] = {}
        for text in words:
            word = Word.parse(text, BINARY)
            fact = oracle.nyldon_factorization_bruteforce(word)
            members = [r for r in range(len(word)) if oracle.is_nyldon_bruteforce(word.rotate(r))]
            if len(members) != 1:
                raise ValueError(f"{text} has {len(members)} member rotations")
            conj = str(word.rotate(members[0]))
            self.conjugates[text] = conj
            self.expected[f"factor {text}"] = " ".join(map(str, fact)) + "\n"
            self.expected[f"is-member {text}"] = ("true" if len(fact) == 1 else "false") + "\n"
            self.expected[f"conjugate {text}"] = conj + "\n"
        gset = oracle.enumerate_nyldon(BINARY, 6)
        self.expected["enumerate --max-len 6"] = "\n".join(map(str, gset.words())) + "\n"
        self.expected["lazard --max-len 8"] = CLI_LAZARD_8

    def argvs(self, pass_no: int) -> list[str]:
        out = []
        for i in range(self.WORDS_PER_PASS):
            text = self.words[(pass_no * self.WORDS_PER_PASS + i) % len(self.words)]
            out += [f"factor {text}", f"is-member {text}", f"conjugate {text}", f"trace {text}"]
        return out + ["enumerate --max-len 6", "lazard --max-len 8"]

    def spawn(self, argv: str):
        proc = subprocess.Popen(
            [sys.executable, "-m", "nyldon.cli", *argv.split()],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=self.cwd,
            env=self.env,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than wait: it also reports this child's peak memory.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return out.decode(), proc.returncode

    @staticmethod
    def inproc(argv: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv.split())
        return buf.getvalue(), code

    def ops(self, pass_no, last):
        run = self.spawn if self.mode == "spawn" else self.inproc
        for argv in self.argvs(pass_no):
            yield argv, lambda argv=argv: run(argv)

    def check(self, gate, label, result):
        stdout, code = result
        gate.check(code == 0, f"{label}: exit code {code}")
        command, _, word = label.partition(" ")
        if command == "trace":
            g.check_trace(gate, label, word, stdout, self.conjugates[word])
        else:
            gate.check(stdout == self.expected[label], f"{label}: stdout differs from golden")


class Sweep(Workload):
    """The research scans: set generation with Hall checks, Lazard runs and the
    power-deficit scan, on thousands of short words."""

    def __init__(self, lex=LEX, lex_len=12, rlex_len=10, report_runs=((2, 20), (3, 11)),
                 run_len=13, scan_len=12) -> None:
        super().__init__()
        self.lex = lex
        self.lex_len, self.rlex_len = lex_len, rlex_len
        self.report_runs = report_runs
        self.run_len, self.scan_len = run_len, scan_len
        self._lex_members = None  # sorted generate(lex) output, for once()

    def ops(self, pass_no, last):
        alphabets = {2: BINARY, 3: TERNARY}
        yield f"hallsets.generate lex {self.lex_len}", lambda: hallsets.generate(self.lex, BINARY, self.lex_len)
        yield f"hallsets.verify_hall lex {self.lex_len}", lambda: hallsets.verify_hall(last[0], self.lex)
        yield f"hallsets.generate rlex {self.rlex_len}", lambda: hallsets.generate(RLEX, BINARY, self.rlex_len, validate=False)
        yield f"hallsets.verify_hall rlex {self.rlex_len}", lambda: hallsets.verify_hall(last[0], RLEX)
        for size, n in self.report_runs:
            yield f"lazard.lazard_report {size} {n}", lambda a=alphabets[size], n=n: lazard.lazard_report(a, n)
        yield f"lazard.lazard_run 2 {self.run_len}", lambda: lazard.lazard_run(BINARY, self.run_len)
        yield f"lazard.finishing_step 2 {self.run_len}", lambda: lazard.finishing_step(last[0])
        yield f"analysis.k_bound_scan 2 {self.scan_len}", lambda: analysis.k_bound_scan(BINARY, self.scan_len, jobs=1)

    def digest(self, label, result):
        kind = label.split()[0]
        if kind == "hallsets.generate":
            return result.member_tuples
        if kind in ("hallsets.verify_hall", "analysis.k_bound_scan"):
            return result.to_dict()
        if kind == "lazard.lazard_run":
            return len(result), result[-1].chosen_word.letters
        return _report_tuple(result) + (len(result.chosen),)

    def first_check(self, gate, label, result):
        kind, first, second = label.split()
        if kind == "hallsets.generate":
            counts = result.counts_by_length()
            gate.check(
                all(counts[n] == oracle.primitive_necklace_count(2, n) for n in counts),
                f"{label}: counts per length differ from the necklace counts",
            )
            if first == "lex":
                self._lex_members = sorted(result.members)
        elif kind == "hallsets.verify_hall":
            verdict = (result.is_factorization, result.is_right_hall, result.is_left_hall,
                       result.is_viennot, result.nyldon_like_ok)
            gate.check(verdict == HALL_GOLDEN[first], f"{label}: verdict {verdict} differs from golden")
        elif kind == "lazard.lazard_report":
            golden = LAZARD_GOLDEN.get((int(first), int(second)))
            gate.check(golden is None or _report_tuple(result) == golden,
                       f"{label}: {_report_tuple(result)} differs from golden {golden}")
            gate.check(len(result.chosen) == result.total_steps, f"{label}: chosen count differs from steps")
        elif kind == "lazard.lazard_run":
            gate.check(len(result[-1].current) == 1, f"{label}: run did not complete")
        elif kind == "lazard.finishing_step":
            streamed = lazard.lazard_report(BINARY, int(second))
            gate.check(result == streamed, f"{label}: snapshot and streaming drivers disagree")
        else:
            classes = sum(oracle.primitive_necklace_count(2, n) for n in range(1, int(second) + 1))
            gate.check(
                not result.violations and result.word_count == classes
                and result.max_K <= math.floor(math.log2(int(second))) + 1,
                f"{label}: deficit bound or class count violated",
            )

    def once(self, gate):
        golden = LAZARD_GOLDEN[(2, 15)]
        got = _report_tuple(lazard.lazard_report(BINARY, 15))
        gate.check(got == golden, f"lazard_report 2 15: {got} differs from golden {golden}")
        report = lazard.lazard_report(BINARY, self.lex_len)
        gate.check(
            list(report.chosen) == self._lex_members,
            f"lazard_report 2 {self.lex_len}: removal order is not the sorted generated set",
        )
        gate.check(
            report == lazard.finishing_step(lazard.lazard_run(BINARY, self.lex_len)),
            f"lazard_report 2 {self.lex_len}: differs from finishing_step(lazard_run)",
        )
