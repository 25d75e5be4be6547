"""Smoke tests of the benchmark itself: each workload at tiny sizes, the traced
path, and the gate counting (not raising on) deliberately wrong outputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import gate as g  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nyldon import BINARY, Factorization, Word, fastfactor  # noqa: E402


def tiny_factor_long(lex=None, seed=3):
    data = inputs.factor_long(seed, sizes=(100, 300), conj_size=100)
    return workloads.FactorLong(data, **({"lex": lex} if lex else {}))


def tiny_sweep(lex=None):
    kwargs = dict(lex_len=6, rlex_len=5, report_runs=((2, 8),), run_len=7, scan_len=5)
    return workloads.Sweep(lex=lex, **kwargs) if lex else workloads.Sweep(**kwargs)


def run_passes(workload, passes=2):
    gate = g.Gate()
    runner = run.Runner(workload, gate)
    for _ in range(passes):
        runner.run_pass()
    return gate, runner


def test_inputs_are_seeded_and_sized():
    a_fact, a_conj = inputs.factor_long(7, sizes=(100, 300), conj_size=100)
    b_fact, b_conj = inputs.factor_long(7, sizes=(100, 300), conj_size=100)
    c_fact, _ = inputs.factor_long(8, sizes=(100, 300), conj_size=100)
    assert [w for *_, w in a_fact] == [w for *_, w in b_fact]
    assert a_conj == b_conj
    assert a_fact[0][2] != c_fact[0][2]  # only the random family depends on the seed
    assert [w for *_, w in a_fact[1:9]] == [w for *_, w in c_fact[1:9]]
    assert all(len(w) == n for _, n, w in a_fact)
    assert set(inputs.FAMILIES) == {name for name, _ in a_conj}
    assert inputs.cli_words(5) == inputs.cli_words(5)
    assert all(10 <= len(w) <= 20 for w in inputs.cli_words(5))


def test_factor_long_tiny_passes_its_checks():
    gate, runner = run_passes(tiny_factor_long())
    assert gate.attempted > 0 and gate.failed == 0, gate.failures
    assert runner.passes == 2 and len(runner.pass_seconds) == 2
    summary = runner.workload.summary(runner.samples)
    assert summary["factor_letters_per_s"][0] > 0


def test_sweep_tiny_passes_its_checks():
    gate, _ = run_passes(tiny_sweep())
    assert gate.attempted > 0 and gate.failed == 0, gate.failures


def test_cli_short_tiny_in_process_and_spawned():
    words = inputs.cli_words(11, count=2)
    gate, _ = run_passes(workloads.CliShort(words, SRC, mode="inproc"), passes=1)
    assert gate.attempted > 0 and gate.failed == 0, gate.failures
    spawned = workloads.CliShort(words, SRC, mode="spawn")
    gate, _ = run_passes(spawned, passes=1)
    assert gate.attempted > 0 and gate.failed == 0, gate.failures
    assert spawned.peak_rss_kb > 0


@pytest.mark.parametrize("make", [tiny_sweep, tiny_factor_long])
def test_traced_pass_counts_repeat_exactly_and_wrappers_come_off(make):
    original = fastfactor.nyldon_factorize
    results = []
    for _ in range(2):
        tracer = tracing.Tracer()
        workload = make(lex=layers.counting_lex(tracer))
        runner = run.Runner(workload, g.Gate(), tracer)
        layers.install(tracer)
        try:
            runner.run_pass(traced=True)
        finally:
            tracer.uninstall()
        m = layers.metrics(tracer, 1, {})
        results.append((m["fastfactor.comparisons"], m["order.compares"], m["lazard.steps"]))
        assert runner.gate.failed == 0, runner.gate.failures
        assert m["melancon.factorize_ms"] > 0 and m["fastfactor.stack_loop_ms"] > 0
        assert all(own >= -1e-6 for own in tracer.self_times())
    assert results[0] == results[1] and results[0][0] > 0
    assert fastfactor.nyldon_factorize is original
    assert "__init__" in Word.__dict__ and not hasattr(Word.__init__, "__wrapped__")


def test_gate_counts_a_factor_with_one_letter_changed():
    word = Word.parse("1011010011100101", BINARY)
    fact = fastfactor.nyldon_factorize(word)
    gate = g.Gate()
    g.check_factorization(gate, "good", word, fact)
    assert gate.failed == 0
    first = fact.factors[0]
    changed = Word((1 - first.letters[0],) + first.letters[1:], BINARY)
    g.check_factorization(gate, "corrupt", word, Factorization((changed,) + fact.factors[1:]))
    assert gate.failed >= 1 and gate.attempted == 6
    assert any(f.startswith("corrupt") for f in gate.failures)


def test_gate_counts_wrong_cli_output_and_exit_code():
    text = "1001101"
    workload = workloads.CliShort([text], SRC, mode="inproc")
    good = workload.expected[f"factor {text}"]
    changed = ("0" if good[0] == "1" else "1") + good[1:]
    conj = workload.conjugates[text]
    gate = g.Gate()
    workload.check(gate, f"factor {text}", (changed, 0))
    workload.check(gate, f"conjugate {text}", (conj + "\n", 2))
    workload.check(gate, f"trace {text}", (", ".join(text[::-1]) + "\n" + conj + "\n", 0))
    assert gate.failed == 3 and gate.attempted == 6, gate.failures


def test_changed_answer_on_repeat_and_raising_operation_are_failures():
    workload = tiny_factor_long()
    gate, _ = run_passes(workload, passes=1)
    label = next(label for label, _ in workload.ops(0, [None]) if "is_nyldon" in label)
    before = gate.failed
    workload.check(gate, label, not workload._seen[label])
    assert gate.failed == before + 1

    class Broken(workloads.Workload):
        def ops(self, pass_no, last):
            yield "boom", lambda: 1 // 0
            yield "fine", lambda: 1

        def first_check(self, gate, label, result):
            gate.check(result == 1, label)

    gate, runner = run_passes(Broken(), passes=1)
    assert (gate.attempted, gate.failed) == (2, 1) and len(runner.samples) == 2

    class RaisingChecks(Broken):
        def first_check(self, gate, label, result):
            raise RuntimeError(label)

        def once(self, gate):
            raise RuntimeError("once")

    gate, runner = run_passes(RaisingChecks(), passes=1)
    assert (gate.attempted, gate.failed) == (3, 3) and len(runner.samples) == 2
    assert sum("check raised" in f for f in gate.failures) == 2


def test_run_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-short", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(layers.METRICS)
    assert result["metrics"]["cli.inproc_ms"]["value"] > 0
