"""CLI surface: outputs, JSON payloads, exit codes."""

import contextlib
import errno
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nyldon
from nyldon import BINARY, LEX, RLEX, InvariantError, is_primitive, words_up_to
from nyldon import analysis, cli, hallsets, melancon, oracle
from nyldon.acceptance import TABLE1_WORDS


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env() -> dict:
    """The environment for a fresh interpreter on this checkout's src."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this checkout's src."""
    return subprocess.run(
        [sys.executable, *args], env=_src_env(), capture_output=True, text=True, check=True
    )


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    result = _fresh("-c", code + "; import sys; print(' '.join(sys.modules))")
    return set(result.stdout.split())


def test_import_does_not_load_numpy():
    # every CLI call pays for `import nyldon`, so it must stay light
    assert "numpy" not in _loaded_after("import nyldon")


def test_benchmark_setup_imports_only_words_and_errors():
    # the benchmark's set-up time covers exactly this import, so changes to
    # lazard, analysis and the rest cannot move it
    loaded = _loaded_after("import nyldon; from nyldon import BINARY, Word, is_primitive")
    assert {m for m in loaded if m.split(".")[0] == "nyldon"} == {
        "nyldon",
        "nyldon.errors",
        "nyldon.words",
    }


def test_cli_import_loads_no_subcommand_module():
    # only --jobs > 1, --kraft and --json need these; each subcommand
    # imports what it runs
    heavy = {
        "concurrent.futures",
        "multiprocessing",
        "fractions",
        "json",
        "nyldon.analysis",
        "nyldon.hallsets",
        "nyldon.lazard",
        "nyldon.oracle",
        "nyldon.acceptance",
    }
    assert not heavy & _loaded_after("import nyldon.cli")


def test_lazard_import_loads_no_oracle():
    # `nyldon lazard` spawns import the driver; only code_check needs the DP
    assert "nyldon.oracle" not in _loaded_after("import nyldon.lazard")


def _imported_by(*argv: str) -> tuple[str, set[str]]:
    """Stdout of a fresh `nyldon` process and the modules it imported."""
    # -X importtime lists every module the process imports on stderr
    result = _fresh("-X", "importtime", "-m", "nyldon.cli", *argv)
    loaded = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    return result.stdout, loaded


def test_default_factor_loads_only_the_stack_factorizer():
    out, loaded = _imported_by("factor", "0110")
    assert out == "0 1 10\n"
    assert "nyldon.fastfactor" in loaded
    assert "nyldon.melancon" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "0110"),
        ("is-member", "0110"),
        ("conjugate", "0110"),
        ("trace", "0110"),
        ("enumerate", "--max-len", "6"),
        ("verify-hall", "--max-len", "6", "--json"),
        ("lazard", "--max-len", "6", "--trace", "--kraft", "6"),
        ("circular-check", "--length", "6"),
        ("power-scan", "--max-len", "6"),
        ("lyndon-check", "--max-len", "6"),
        ("bench", "--max-len", "64"),
    ],
    ids=lambda argv: argv[0],
)
def test_word_commands_load_no_class_generator(argv):
    # dataclasses and the inspect it loads cost more than the work itself;
    # every value class derives from words._Frozen instead
    _, loaded = _imported_by(*argv)
    assert "nyldon.words" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_selftest_loads_no_class_generator():
    # running the suite takes minutes, so only its import is checked
    loaded = _loaded_after("import nyldon.acceptance")
    assert "nyldon.acceptance" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_version_loads_no_submodule():
    loaded = _loaded_after("import nyldon; nyldon.__version__")
    assert not {m for m in loaded if m.startswith("nyldon.")}


def test_every_public_name_comes_from_its_module():
    for name in nyldon.__all__:
        module = importlib.import_module(f"nyldon.{nyldon._MODULE_OF[name]}")
        namespace: dict = {}
        exec(f"from nyldon import {name}", namespace)
        assert namespace[name] is getattr(module, name), name
        assert getattr(namespace[name], "__module__", module.__name__) == module.__name__


def test_lazy_namespace_lists_and_rejects_names():
    assert set(nyldon.__all__) <= set(dir(nyldon))
    with pytest.raises(AttributeError):
        nyldon.no_such_name


def test_factor_default(capsys):
    code, out, err = run_cli(capsys, "factor", "10001011010101")
    assert code == 0
    assert out.strip() == "1000 1011010101"
    assert err == ""


def test_factor_algorithms_agree(capsys):
    outs = set()
    for algorithm in ("fast", "naive", "melancon"):
        code, out, _ = run_cli(
            capsys, "factor", "110101", "--algorithm", algorithm
        )
        assert code == 0
        outs.add(out.strip())
    assert len(outs) == 1


def test_factor_trace(capsys):
    code, out, _ = run_cli(capsys, "factor", "10001011010101", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1"
    assert lines[-1] == "factors: 1000 1011010101"


def test_factor_json(capsys):
    code, out, _ = run_cli(capsys, "factor", "11", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"word": "11", "factors": ["1", "1"]}


def test_is_member(capsys):
    code, out, _ = run_cli(capsys, "is-member", "101")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run_cli(capsys, "is-member", "011")
    assert (code, out.strip()) == (0, "false")
    for algorithm in ("naive", "melancon"):
        code, out, _ = run_cli(
            capsys, "is-member", "1011", "--algorithm", algorithm
        )
        assert (code, out.strip()) == (0, "true")


def test_conjugate_and_trace(capsys):
    code, out, _ = run_cli(capsys, "conjugate", "10001011010101")
    assert (code, out.strip()) == (0, "10110101011000")
    code, out, _ = run_cli(capsys, "trace", "10001011010101")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1"
    assert lines[-1] == "10110101011000"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_trace_prints_what_conjugate_trace_prints(capsys, json_flag):
    for word in ("10001011010101", "0011011", "1010"):
        traced = run_cli(capsys, "trace", word, *json_flag)
        assert traced == run_cli(capsys, "conjugate", word, "--trace", *json_flag)


def test_conjugate_imprimitive_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "conjugate", "1010")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("policy", [LEX, RLEX], ids=["lex", "rlex"])
def test_naive_conjugate_matches_the_default(policy):
    # The naive route decides each rotation from the definition alone: the
    # oracle under lex, its recursion under rlex, with one cache per word.
    for w in words_up_to(BINARY, 10):
        if is_primitive(w):
            assert cli._naive_conjugate(w, policy) == melancon.conjugate(w, policy), w


def test_naive_conjugate_is_capped_and_needs_a_primitive_word(capsys):
    for policy in ("lex", "rlex"):
        argv = ("conjugate", "0011011", "--algorithm", "naive", "--policy", policy)
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv[:2], "--policy", policy)
        for word, code in (("1010", 1), ("0" * 64 + "1", 2)):
            argv = ("conjugate", word, "--algorithm", "naive", "--policy", policy)
            got, out, err = run_cli(capsys, *argv)
            assert (got, out) == (code, "")
            assert err.startswith("error:") and len(err.splitlines()) == 1


def test_naive_membership_is_capped(capsys):
    for policy in ("lex", "rlex"):
        argv = ("is-member", "0" * 63 + "1", "--algorithm", "naive", "--policy", policy)
        assert run_cli(capsys, *argv) == (0, "false\n" if policy == "lex" else "true\n", "")
        got, out, err = run_cli(capsys, argv[0], "0" * 64 + "1", *argv[2:])
        assert (got, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-len", "7")
    assert code == 0
    assert tuple(out.split()) == TABLE1_WORDS


def test_enumerate_json_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-len", "5", "--json")
    payload = json.loads(out)
    assert payload["counts_by_length"] == {"1": 2, "2": 1, "3": 2, "4": 3, "5": 6}
    assert payload["policy"] == "lex"


def test_enumerate_rlex_needs_no_validate(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--max-len", "5", "--policy", "rlex")
    assert code == 1
    assert "error:" in err
    code, out, _ = run_cli(
        capsys, "enumerate", "--max-len", "5", "--policy", "rlex", "--no-validate"
    )
    assert code == 0
    assert "00001" in out.split()


def test_verify_hall_text(capsys):
    code, out, _ = run_cli(capsys, "verify-hall", "--max-len", "6")
    assert code == 0
    lines = dict(
        line.split(": ", 1) for line in out.strip().splitlines() if ": " in line
    )
    assert lines["policy"] == "lex"
    assert lines["right_hall"] == "true"
    assert lines["left_hall"] == "false"
    assert lines["viennot"] == "false"
    assert lines["growth_clause"] == "true"
    assert lines["factorization"] == "true"


def test_verify_hall_rlex(capsys):
    code, out, _ = run_cli(
        capsys, "verify-hall", "--max-len", "6", "--policy", "rlex"
    )
    assert code == 0
    lines = dict(
        line.split(": ", 1) for line in out.strip().splitlines() if ": " in line
    )
    assert lines["viennot"] == "true"
    assert lines["growth_clause"] == "false"


def test_lazard_summary(capsys):
    code, out, _ = run_cli(capsys, "lazard", "--max-len", "5")
    assert code == 0
    assert "finishing_step: 4" in out
    assert "stop_word: 10" in out
    assert "total_steps: 14" in out


def test_lazard_trace_rows(capsys):
    code, out, _ = run_cli(capsys, "lazard", "--max-len", "5", "--trace")
    assert code == 0
    rows = [line for line in out.splitlines() if " | " in line]
    assert len(rows) == 14
    assert rows[0] == "1 | {0, 1} | 0"
    assert rows[-1] == "14 | {10111} | 10111"


def test_lazard_kraft(capsys):
    code, out, _ = run_cli(capsys, "lazard", "--max-len", "5", "--kraft", "12")
    assert code == 0
    assert "kraft step 1: 1" in out
    assert out.count("kraft step") == 14


def test_lazard_kraft_is_budgeted(capsys):
    # The sums are exact over 2^L: unchecked, this run did not end in 15 s.
    code, out, err = run_cli(capsys, "lazard", "--max-len", "3", "--kraft", "100000")
    assert (code, out) == (1, "")
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: --kraft 100000 sums over 5 steps would cost")


def test_lazard_kraft_runs_past_the_snapshot_budget(capsys):
    # only --trace iterates the states; the sums read the report's removals
    code, out, err = run_cli(capsys, "lazard", "--max-len", "14", "--kraft", "3")
    assert (code, err) == (0, "")
    assert out.count("kraft step ") == 2538
    assert "total_steps: 2538" in out


def test_lazard_snapshots_are_capped(capsys):
    code, out, err = run_cli(capsys, "lazard", "--max-len", "14", "--trace")
    assert (code, out) == (1, "")
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "at step " in err
    code, out, _ = run_cli(capsys, "lazard", "--max-len", "14")
    assert code == 0
    assert "total_steps: 2538" in out


def test_lazard_trace_runs_one_elimination(capsys, monkeypatch):
    from nyldon import lazard

    calls = []
    eliminate = lazard._eliminate

    def counted(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(lazard, "_eliminate", counted)
    code, out, _ = run_cli(capsys, "lazard", "--max-len", "8", "--trace")
    assert code == 0
    assert "finishing_step: " in out
    assert len(calls) == 1


def test_lazard_json(capsys):
    code, out, _ = run_cli(
        capsys, "lazard", "--max-len", "5", "--trace", "--json"
    )
    payload = json.loads(out)
    assert payload["finishing_step"] == 4
    assert payload["stop_word"] == "10"
    assert len(payload["trace"]) == 14
    assert payload["trace"][2]["chosen"] == "10"


def test_lazard_trace_and_kraft_match_the_pinned_digest(capsys):
    # the sha256 of this stdout when lazard_run built every state eagerly
    code, out, _ = run_cli(
        capsys, "lazard", "--max-len", "9", "--trace", "--kraft", "9", "--json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "514fab4382991f852a1629e4b39965415b518ebd55d7d7789eb09459d9e95548"
    )


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_closed_stdout_is_a_one_line_error(flags):
    # the trace (about 2.5 MB) outgrows a pipe buffer, so the write fails
    # once the reader has closed its end after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "nyldon.cli", "lazard", "--max-len", "12", "--trace", *flags],
        env=_src_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "0001"),
        ("factor", "0001", "--json"),
        ("lazard", "--max-len", "12", "--trace"),
        ("--help",),
        ("circular-check", "--help"),
    ],
    ids=["flush", "json", "write", "help", "subcommand_help"],
)
def test_full_stdout_is_a_one_line_error(argv):
    # a short output fails in main's flush, the 2.5 MB trace in print itself,
    # and help in the parser's own flush before argparse exits
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "nyldon.cli", *argv],
            env=_src_env(),
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert proc.returncode == 1
    assert proc.stderr == f"error: cannot write to stdout: {os.strerror(errno.ENOSPC)}\n"


def test_circular_check(capsys):
    code, out, _ = run_cli(capsys, "circular-check", "--length", "3")
    assert code == 0
    assert out.startswith("circular: true")
    assert out == "circular: true (2 codewords)\n"
    code, out, _ = run_cli(capsys, "circular-check", "--length", "4", "--json")
    payload = json.loads(out)
    assert payload == {
        "code": ["1000", "1001", "1011"],
        "is_circular": True,
        "witness": None,
        "length": 4,
    }
    # the split graph decides exactly, so there is no block count to pass
    with pytest.raises(SystemExit) as exc:
        cli.run(["circular-check", "--length", "4", "--max-blocks", "2"])
    assert exc.value.code == 2


def test_circular_check_builds_only_its_length(capsys, monkeypatch):
    def no_generation(*args, **kwargs):
        raise AssertionError("circular-check generated the whole set")

    monkeypatch.setattr(hallsets, "generate", no_generation)
    code, out, _ = run_cli(capsys, "circular-check", "--length", "12")
    assert (code, out) == (0, "circular: true (335 codewords)\n")
    code, out, err = run_cli(capsys, "circular-check", "--length", "0")
    assert (code, out, err) == (2, "", "error: length must be at least 1\n")


def test_power_scan(capsys):
    code, out, _ = run_cli(capsys, "power-scan", "--max-len", "6")
    assert code == 0
    assert "violations: 0" in out


def test_power_scan_jobs_do_not_change_output(capsys):
    # --jobs 2 runs the process pool, whose import is deferred to that branch
    outs = [
        run_cli(capsys, "power-scan", "--max-len", "8", "--jobs", jobs)
        for jobs in ("1", "2")
    ]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_lyndon_check(capsys):
    code, out, _ = run_cli(capsys, "lyndon-check", "--max-len", "8")
    assert (code, out.strip().splitlines()[-1]) == (0, "ok: true")


def test_bench_csv(capsys):
    code, out, _ = run_cli(capsys, "bench", "--max-len", "128")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,algorithm,comparisons,nanos"
    assert len(lines) == 1 + 2 * 2  # n = 64 and 128, two algorithms each
    for line in lines[1:]:
        n, algorithm, comparisons, nanos = line.split(",")
        assert algorithm in {"fast", "melancon"}
        if algorithm == "fast":
            # the stack factorizer honors the comparison bound; the
            # contraction algorithm has no such guarantee
            assert int(comparisons) <= 2 * int(n) - 1
        else:
            # every contraction comparison is counted, none bypassed
            assert int(comparisons) > 0
        assert int(nanos) > 0


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["factor"])  # missing word
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.run(["no-such-command"])
    capsys.readouterr()
    code, _, err = run_cli(capsys, "factor", "abc")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "0011", "--policy", "nope"),
        ("enumerate", "--max-len", "4", "--policy", "nope"),
        ("enumerate", "--max-len", "0"),
        ("enumerate", "--max-len", "-1"),
        ("power-scan", "--max-len", "4", "--jobs", "0"),
        ("power-scan", "--max-len", "4", "--jobs", "-1"),
        ("lyndon-check", "--max-len", "0"),
        ("lazard", "--max-len", "0"),
        ("lazard", "--max-len", "3", "--kraft", "0"),
        ("lazard", "--max-len", "3", "--kraft", "-2"),
    ],
)
def test_bad_arguments_are_one_line_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "command, max_len, message",
    [
        ("lyndon-check", "21", "Lyndon suffix check would visit 4194302 words"),
        ("power-scan", "25", "power scan would profile 2807196 words"),
    ],
)
def test_scans_over_the_word_budget_are_one_line_domain_errors(
    capsys, command, max_len, message
):
    code, out, err = run_cli(capsys, command, "--max-len", max_len)
    assert (code, out) == (1, "")
    assert err == f"error: {message} (budget 2000000)\n"


def test_bad_policy_for_fast_algorithm(capsys):
    code, _, err = run_cli(
        capsys, "factor", "0011", "--policy", "rlex", "--algorithm", "fast"
    )
    assert code == 1
    assert "lex" in err


def test_melancon_handles_rlex(capsys):
    code, out, _ = run_cli(
        capsys, "factor", "0011", "--policy", "rlex", "--algorithm", "melancon"
    )
    assert code == 0
    assert out.strip() == "0011"  # 0011 is Lyndon, a single rlex member


def test_power_scan_reports_a_deficit_bound_failure(capsys, monkeypatch):
    # the central-run helper raises when the deficit bound fails; the scan
    # must list the word as a violation and finish rather than abort
    real = analysis._central_run
    target = nyldon.conjugate(nyldon.Word.parse("011")).letters

    def fails_on_011(factors, n, k):
        if n == target:
            raise InvariantError("power deficit exceeds bound")
        return real(factors, n, k)

    monkeypatch.setattr(analysis, "_central_run", fails_on_011)
    report = analysis.k_bound_scan(BINARY, 5, jobs=1)
    assert [str(w) for w in report.violations] == ["011"]
    assert report.word_count == sum(report.histogram.values()) + 1
    code, out, _ = run_cli(capsys, "power-scan", "--max-len", "5")
    assert code == 1
    assert "violations: 1" in out


def test_generate_cross_check_failure_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(
        oracle, "is_member_bruteforce", lambda word, gset: word not in gset
    )
    with pytest.raises(InvariantError):
        hallsets.generate(LEX, BINARY, 4)
    code, out, err = run_cli(capsys, "enumerate", "--max-len", "4")
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


@st.composite
def well_typed_argv(draw):
    command = draw(st.sampled_from(["factor", "is-member", "conjugate", "trace", "lazard"]))
    argv = [command, "--alphabet", str(draw(st.integers(-1, 3)))]
    if command == "lazard":
        argv += ["--max-len", str(draw(st.integers(-2, 7)))]
        if draw(st.booleans()):
            argv.append("--trace")
        if draw(st.booleans()):
            argv += ["--kraft", str(draw(st.integers(-3, 8)))]
    else:
        # no leading "-", so argparse never reads the word as a flag
        argv.append(draw(st.text(alphabet="0123456789,x ", max_size=12)))
        if command != "trace":
            argv += ["--algorithm", draw(st.sampled_from(["naive", "fast", "melancon"]))]
    return argv


@settings(max_examples=150, deadline=None)
@given(well_typed_argv())
def test_well_typed_argv_never_escapes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
