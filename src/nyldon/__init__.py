"""Nyldon words and Nyldon-like Hall sets.

A Nyldon word is a word that admits no factorization into two or more
lexicographically nondecreasing shorter Nyldon words; every other word
factors that way uniquely. The package provides:

- exact brute-force oracles straight from the definitions (`oracle`),
- a linear-time right-to-left stack factorizer whose factor comparisons
  touch only the letters the shorter factor spans (`fastfactor`),
- the circular contraction algorithm that finds the unique member
  rotation of a primitive word, plus its linear factorization variant,
  generic over order policies (`melancon`),
- generation and verification of Nyldon-like sets against the right/left
  Hall and Viennot conditions (`hallsets`),
- the right Lazard elimination procedure with finishing-step detection,
  closed-form stop-word predictions, and exact-rational truncated code
  sums (`lazard`),
- circular-code verification, power-factorization deficit profiling, and
  the Lyndon suffix criterion (`analysis`),
- a CLI (`nyldon ...`) and the acceptance checks behind `nyldon selftest`.
"""

from .analysis import (
    CircularCodeVerdict,
    KBoundReport,
    PowerProfile,
    circular_code_check,
    k_bound_scan,
    lyndon_suffix_check,
    power_profile,
    rotation_parse,
    sn_ka_check,
)
from .errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    InvariantError,
    NotPrimitiveError,
    NyldonError,
    PolicyViolationError,
)
from .fastfactor import factorize_with_stats, is_nyldon, nyldon_factorize
from .hallsets import HallVerdict, generate, verify_hall
from .lazard import (
    CodeCheck,
    LazardReport,
    LazardState,
    code_check,
    count_words_after_stop,
    finishing_step,
    kraft_sum,
    lazard_code_check,
    lazard_report,
    lazard_run,
    materialize_y,
    predicted_stop_word,
)
from .melancon import ContractionTrace, conjugate, contraction_trace, factorize
from .oracle import (
    GeneratedSet,
    enumerate_members,
    enumerate_nyldon,
    is_member_bruteforce,
    is_nyldon_bruteforce,
    longest_nyldon_suffix,
    nyldon_factorization_bruteforce,
    primitive_necklace_count,
)
from .order import LEX, RLEX, OrderPolicy, get_policy, register_policy
from .words import (
    BINARY,
    TERNARY,
    Alphabet,
    Factorization,
    Word,
    conjugates,
    is_lyndon,
    is_primitive,
    lyndon_words,
    words_up_to,
)

__version__ = "1.0.0"

__all__ = [
    "Alphabet",
    "AlphabetMismatchError",
    "BINARY",
    "BudgetExceededError",
    "CircularCodeVerdict",
    "CodeCheck",
    "ContractionTrace",
    "Factorization",
    "GeneratedSet",
    "HallVerdict",
    "InvariantError",
    "KBoundReport",
    "LEX",
    "LazardReport",
    "LazardState",
    "NotPrimitiveError",
    "NyldonError",
    "OrderPolicy",
    "PolicyViolationError",
    "PowerProfile",
    "RLEX",
    "TERNARY",
    "Word",
    "circular_code_check",
    "code_check",
    "conjugate",
    "conjugates",
    "contraction_trace",
    "count_words_after_stop",
    "enumerate_members",
    "enumerate_nyldon",
    "factorize",
    "factorize_with_stats",
    "finishing_step",
    "generate",
    "get_policy",
    "is_lyndon",
    "is_member_bruteforce",
    "is_nyldon",
    "is_nyldon_bruteforce",
    "is_primitive",
    "k_bound_scan",
    "kraft_sum",
    "lazard_code_check",
    "lazard_report",
    "lazard_run",
    "longest_nyldon_suffix",
    "lyndon_suffix_check",
    "lyndon_words",
    "materialize_y",
    "nyldon_factorization_bruteforce",
    "nyldon_factorize",
    "power_profile",
    "predicted_stop_word",
    "primitive_necklace_count",
    "register_policy",
    "rotation_parse",
    "sn_ka_check",
    "verify_hall",
    "words_up_to",
]
