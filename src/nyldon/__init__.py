"""Nyldon words and Nyldon-like Hall sets.

A Nyldon word is a word that admits no factorization into two or more
lexicographically nondecreasing shorter Nyldon words; every other word
factors that way uniquely. The package provides:

- exact brute-force oracles straight from the definitions (`oracle`),
- a right-to-left stack factorizer with at most 2|w| - 1 factor
  comparisons, each touching only the letters the shorter factor spans
  (`fastfactor`),
- circular contraction, which finds the unique member rotation of a
  primitive word, and its linear form, which factorizes: one heap engine
  keyed by the order policy's sort key, generic over policies (`melancon`),
- generation and verification of Nyldon-like sets against the right/left
  Hall and Viennot conditions (`hallsets`),
- the right Lazard elimination procedure with finishing-step detection,
  closed-form stop-word predictions, and exact-rational truncated code
  sums (`lazard`),
- circular-code verification, power-factorization deficit profiling, and
  the Lyndon suffix criterion (`analysis`),
- a CLI (`nyldon ...`) and the acceptance checks behind `nyldon selftest`.

Every name in `__all__` is importable from the package, but `import nyldon`
loads no submodule: each name loads its defining module on first use, so a
CLI process pays only for the modules its subcommand runs.
"""

from importlib import import_module

__version__ = "1.0.0"

# The public names, by defining module.
_EXPORTS = {
    "analysis": (
        "CircularCodeVerdict",
        "KBoundReport",
        "PowerProfile",
        "circular_code_check",
        "k_bound_scan",
        "lyndon_suffix_check",
        "power_profile",
        "rotation_parse",
        "sn_ka_check",
    ),
    "errors": (
        "AlphabetMismatchError",
        "BudgetExceededError",
        "InvariantError",
        "NotPrimitiveError",
        "NyldonError",
        "PolicyViolationError",
    ),
    "fastfactor": ("factorize_with_stats", "is_nyldon", "nyldon_factorize"),
    "hallsets": ("HallVerdict", "generate", "verify_hall"),
    "lazard": (
        "CodeCheck",
        "LazardReport",
        "LazardRun",
        "LazardState",
        "code_check",
        "count_words_after_stop",
        "finishing_step",
        "kraft_sums",
        "lazard_code_check",
        "lazard_report",
        "lazard_run",
        "materialize_y",
        "predicted_stop_word",
    ),
    "melancon": ("ContractionTrace", "conjugate", "contraction_trace", "factorize"),
    "oracle": (
        "GeneratedSet",
        "enumerate_members",
        "enumerate_nyldon",
        "is_member_bruteforce",
        "is_nyldon_bruteforce",
        "longest_nyldon_suffix",
        "nyldon_factorization_bruteforce",
        "primitive_necklace_count",
    ),
    "order": ("LEX", "RLEX", "OrderPolicy", "get_policy", "register_policy"),
    "words": (
        "BINARY",
        "TERNARY",
        "Alphabet",
        "Factorization",
        "Word",
        "conjugates",
        "is_lyndon",
        "is_primitive",
        "lyndon_words",
        "words_up_to",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Load a public name's module on first use (PEP 562) and bind the name,
    so later lookups skip this hook. Each defining submodule is an attribute
    too: `nyldon.melancon` needs no `import nyldon.melancon` first."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
