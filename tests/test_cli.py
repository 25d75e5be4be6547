"""CLI surface: outputs, JSON payloads, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nyldon import cli
from nyldon.acceptance import TABLE1_WORDS


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_does_not_load_numpy():
    # every CLI call pays for `import nyldon`, so it must stay light
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import nyldon, sys; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


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


def test_conjugate_imprimitive_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "conjugate", "1010")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


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


def test_lazard_json(capsys):
    code, out, _ = run_cli(
        capsys, "lazard", "--max-len", "5", "--trace", "--json"
    )
    payload = json.loads(out)
    assert payload["finishing_step"] == 4
    assert payload["stop_word"] == "10"
    assert len(payload["trace"]) == 14
    assert payload["trace"][2]["chosen"] == "10"


def test_circular_check(capsys):
    code, out, _ = run_cli(capsys, "circular-check", "--length", "3")
    assert code == 0
    assert out.startswith("circular: true")
    code, out, _ = run_cli(
        capsys, "circular-check", "--length", "4", "--max-blocks", "2", "--json"
    )
    payload = json.loads(out)
    assert payload["is_circular"] is True
    assert payload["length"] == 4


def test_power_scan(capsys):
    code, out, _ = run_cli(capsys, "power-scan", "--max-len", "6")
    assert code == 0
    assert "violations: 0" in out


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
        ("lyndon-check", "--max-len", "4", "--jobs", "0"),
        ("lyndon-check", "--max-len", "4", "--jobs", "-1"),
    ],
)
def test_bad_arguments_are_one_line_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


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
