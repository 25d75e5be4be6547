"""The one word budget on every scan, and rules the whole source tree keeps."""

import ast
from pathlib import Path

import pytest

from nyldon import (
    BINARY,
    BudgetExceededError,
    Word,
    analysis,
    circular_code_check,
    enumerate_nyldon,
    k_bound_scan,
    lazard,
    lazard_report,
    lazard_run,
    lyndon_suffix_check,
    materialize_y,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "nyldon"


def _code5():
    return [w for w in enumerate_nyldon(BINARY, 5).words() if len(w) == 5]


# (scan, budget constant patched into lazard or None, message)
CASES = [
    (
        lambda: lyndon_suffix_check(BINARY, 21),
        None,
        "Lyndon suffix check would visit 4194302 words (budget 2000000)",
    ),
    (
        lambda: k_bound_scan(BINARY, 25),
        None,
        "power scan would profile 2807196 words (budget 2000000)",
    ),
    (
        # six codewords of length 5, split at four positions each
        lambda: circular_code_check(_code5(), budget=10),
        None,
        "circular check's split graph would hold 24 edges (budget 10)",
    ),
    (
        lambda: lazard_report(BINARY, 10),
        100,
        "the run truncated at 10 holds, at step 4, 127 words (budget 100)",
    ),
    (
        lambda: lazard_run(BINARY, 10),
        100,
        "the snapshots of the run truncated at 10 hold, at step 4, 153 words (budget 100)",
    ),
    (
        # the default is bound when the function is defined, so the replay
        # takes the low budget through its parameter
        lambda: materialize_y(lazard_run(BINARY, 10)[20], 10, budget=100),
        None,
        "the run truncated at 10 holds, at step 4, 127 words (budget 100)",
    ),
]


@pytest.mark.parametrize(
    "scan, low, message",
    CASES,
    ids=[
        "lyndon_suffix",
        "k_bound",
        "circular",
        "report",
        "run",
        "materialize",
    ],
)
def test_every_scan_stops_at_the_word_budget(monkeypatch, scan, low, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused scan started its work")

    # the analysis scans refuse before they enumerate anything
    monkeypatch.setattr(analysis, "lyndon_words", no_work)
    if low is not None:
        monkeypatch.setattr(lazard, "DEFAULT_WORD_BUDGET", low)
    with pytest.raises(BudgetExceededError) as info:
        scan()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "length, message",
    [
        (30, "the length-30 code would visit 74248451 words (budget 2000000)"),
        # 190 557 codewords of 22 letters, split at 21 positions each
        (22, "circular check's split graph would hold 4001697 edges (budget 2000000)"),
    ],
)
def test_fixed_length_code_refuses_before_it_generates(monkeypatch, length, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused construction started its work")

    monkeypatch.setattr(analysis, "lyndon_words", no_work)
    with pytest.raises(BudgetExceededError) as info:
        analysis.fixed_length_code(BINARY, length)
    assert str(info.value) == message


class Started(Exception):
    pass


def test_scans_under_the_word_budget_start(monkeypatch):
    def started(*args, **kwargs):
        raise Started

    # binary 24 has 1 465 020 Lyndon representatives to profile
    monkeypatch.setattr(analysis, "lyndon_words", started)
    with pytest.raises(Started):
        k_bound_scan(BINARY, 24)
    # a code of one-letter words has no rotation to test: its split graph
    # has no edges, so no budget refuses it
    assert circular_code_check([Word.parse("0"), Word.parse("1")], budget=0).is_circular


ENV_READS = ("environ", "getenv")


def _source_trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_source_has_no_assert_environ_read_or_stray_budget_raise():
    # Checks must survive `python -O`, behaviour must not hang on the
    # environment, and every budget is checked through errors.check_budget.
    found = []
    for name, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{name}:{node.lineno}: assert")
            elif isinstance(node, ast.Attribute) and node.attr in ENV_READS:
                found.append(f"{name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in ENV_READS:
                        found.append(f"{name}:{node.lineno}: {alias.name}")
            elif isinstance(node, ast.Raise) and name != "errors.py":
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "BudgetExceededError":
                    found.append(f"{name}:{node.lineno}: raise BudgetExceededError")
    assert found == []


BUILT_IN_ORDERS = ("lex", "rlex")


def _constants(node):
    """The constants `node` is or lists: `"lex"`, or `("lex", "rlex")`."""
    if isinstance(node, ast.Constant):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [n.value for n in node.elts if isinstance(n, ast.Constant)]
    return []


def test_orders_are_read_only_through_their_keys():
    # An order is defined in `order`, and every other module compares its
    # keys: none calls a policy's three-way compare, and none but the CLI
    # (whose oracle route is lex by definition) branches on a built-in id.
    found = []
    for name, tree in _source_trees():
        if name == "order.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "compare":
                found.append(f"{name}:{node.lineno}: .compare")
            elif isinstance(node, ast.Compare) and name != "cli.py":
                operands = [node.left, *node.comparators]
                reads_id = any(isinstance(o, ast.Attribute) and o.attr == "id" for o in operands)
                named = [value for o in operands for value in _constants(o)]
                if reads_id and any(value in BUILT_IN_ORDERS for value in named):
                    found.append(f"{name}:{node.lineno}: .id compared with an order's id")
    assert found == []
