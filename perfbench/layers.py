"""Per-layer instrumentation for the traced run, and the per-layer metrics.

Layers are the package modules. `install` wraps the public functions one
layer calls in another so that their spans nest; the metrics below are read
from those spans. Totals are divided by the number of traced passes, so every
time and count is per pass. A layer the workload never reaches reads 0.
"""

from __future__ import annotations

import statistics
import tracemalloc

from nyldon import LEX, OrderPolicy
from nyldon import analysis, cli, fastfactor, hallsets, lazard, melancon, oracle, words

from tracing import ATTRS, END, NAME, PARENT, START, Tracer

# melancon compares slices below this length and builds a suffix-array engine
# from it upward; calls below it are the many short calls of `sweep`.
SHORT_WORD = 64

# name -> (unit, better); the order is the report order.
METRICS = {
    "words.word_build_ms": ("ms", "lower"),
    "words.parse_ms": ("ms", "lower"),
    "words.materialize_ms": ("ms", "lower"),
    "fastfactor.engine_build_ms": ("ms", "lower"),
    "fastfactor.stack_loop_ms": ("ms", "lower"),
    "fastfactor.comparisons": ("count", "lower"),
    "fastfactor.comparisons_per_letter": ("ratio", "lower"),
    "melancon.conjugate_ms": ("ms", "lower"),
    "melancon.factorize_ms": ("ms", "lower"),
    "melancon.short_calls": ("count", "lower"),
    "melancon.short_call_us": ("us", "lower"),
    "order.compares": ("count", "lower"),
    "hallsets.generate_s": ("s", "lower"),
    "hallsets.verify_hall_s": ("s", "lower"),
    "hallsets.self_s": ("s", "lower"),
    "oracle.cross_check_ms": ("ms", "lower"),
    "lazard.report_s": ("s", "lower"),
    "lazard.run_s": ("s", "lower"),
    "lazard.finishing_step_s": ("s", "lower"),
    "lazard.steps": ("count", "lower"),
    "lazard.run_peak_mb": ("MB", "lower"),
    "analysis.k_bound_scan_s": ("s", "lower"),
    "cli.interp_floor_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.inproc_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def counting_lex(tracer: Tracer) -> OrderPolicy:
    """The lex order, counting its comparisons while the tracer is active."""
    base = LEX.compare
    counts = tracer.counts

    def compare(u, v):
        if tracer.active:
            counts["order.compares"] += 1
        return base(u, v)

    return OrderPolicy("lex", compare, assume_nyldon_like=True)


def _letters(args, result):
    return {"letters": len(args[0])}


def install(tracer: Tracer) -> None:
    leaf_init = tracer.leaf("words.Word", words.Word.__init__)
    tracer.patch(words.Word, "__init__", leaf_init)
    parse = words.Word.__dict__["parse"].__func__
    tracer.patch(words.Word, "parse", classmethod(tracer.traced("words.Word.parse", parse)))

    tracer.wrap(fastfactor, "nyldon_factorize", "fastfactor.nyldon_factorize")
    tracer.wrap(fastfactor, "is_nyldon", "fastfactor.is_nyldon")
    tracer.wrap(fastfactor, "factorize_with_stats", "fastfactor.factorize_with_stats")
    tracer.wrap(fastfactor, "factor_ranges", "fastfactor.factor_ranges",
                lambda args, r: {"letters": len(args[0]), "comparisons": r[1]})
    # Engines are built by fastfactor and, for long words, by melancon.
    tracer.wrap(fastfactor.ComparisonEngine, "__init__", "fastfactor.engine_build")

    for fn in ("conjugate", "factorize", "contraction_trace"):
        tracer.wrap(melancon, fn, f"melancon.{fn}", _letters)

    for fn in ("generate", "verify_hall", "validate_nyldon_like", "verify_factorization_property"):
        tracer.wrap(hallsets, fn, f"hallsets.{fn}")
    tracer.wrap(oracle, "is_member_bruteforce", "oracle.is_member_bruteforce")

    tracer.wrap(lazard, "lazard_report", "lazard.lazard_report",
                lambda args, r: {"steps": r.total_steps})
    tracer.wrap(lazard, "lazard_run", "lazard.lazard_run", lambda args, r: {"steps": len(r)})
    tracer.wrap(lazard, "finishing_step", "lazard.finishing_step")

    tracer.wrap(analysis, "k_bound_scan", "analysis.k_bound_scan")
    tracer.wrap(analysis, "power_profile", "analysis.power_profile")

    tracer.wrap(cli, "run", "cli.run")


def lazard_run_peaks(run_ops) -> list[float]:
    """Re-run operations with tracemalloc on only inside lazard_run; the peak
    bytes each lazard_run call allocated, in MB. Kept out of the timed passes
    because tracemalloc slows every allocation."""
    peaks: list[float] = []
    original = lazard.lazard_run

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    lazard.lazard_run = measured
    try:
        for fn in run_ops:
            fn()
    finally:
        lazard.lazard_run = original
    return peaks


def ops_reaching(tracer: Tracer, name: str) -> set[str]:
    """Labels of the benchmark operations whose spans contain a `name` span."""
    labels = set()
    for span in tracer.spans:
        if span[NAME] != name:
            continue
        root = span
        while root[PARENT] is not None:
            root = tracer.spans[root[PARENT]]
        if root[NAME].startswith("bench."):
            labels.add(root[NAME][len("bench."):])
    return labels


def metrics(tracer: Tracer, passes: int, probes: dict[str, float]) -> dict[str, float]:
    spans = tracer.spans
    selfs = tracer.self_times()
    incl: dict[str, float] = {}
    for s in spans:
        incl[s[NAME]] = incl.get(s[NAME], 0.0) + s[END] - s[START]

    def total(name):
        return incl.get(name, 0.0) / passes

    ranges = [s for s in spans if s[NAME] == "fastfactor.factor_ranges" and s[ATTRS]]
    ranges_in_materialize = sum(
        s[END] - s[START] for s in ranges
        if s[PARENT] is not None and spans[s[PARENT]][NAME] == "fastfactor.factorize_with_stats"
    )
    letters = sum(s[ATTRS]["letters"] for s in ranges)
    comparisons = sum(s[ATTRS]["comparisons"] for s in ranges)
    short = [
        s[END] - s[START] for s in spans
        if s[NAME].startswith("melancon.") and s[ATTRS] and s[ATTRS]["letters"] < SHORT_WORD
    ]
    steps = sum(s[ATTRS]["steps"] for s in spans if s[NAME].startswith("lazard.lazard_") and s[ATTRS])
    hallsets_self = sum(own for s, own in zip(spans, selfs) if s[NAME].startswith("hallsets."))

    out = {
        "words.word_build_ms": tracer.leaves["words.Word"][1] * 1000 / passes,
        "words.parse_ms": total("words.Word.parse") * 1000,
        "words.materialize_ms": (incl.get("fastfactor.factorize_with_stats", 0.0) - ranges_in_materialize) * 1000 / passes,
        "fastfactor.engine_build_ms": total("fastfactor.engine_build") * 1000,
        "fastfactor.stack_loop_ms": sum(own for s, own in zip(spans, selfs) if s[NAME] == "fastfactor.factor_ranges") * 1000 / passes,
        "fastfactor.comparisons": comparisons / passes,
        "fastfactor.comparisons_per_letter": comparisons / letters if letters else 0.0,
        "melancon.conjugate_ms": total("melancon.conjugate") * 1000,
        "melancon.factorize_ms": total("melancon.factorize") * 1000,
        "melancon.short_calls": len(short) / passes,
        "melancon.short_call_us": statistics.fmean(short) * 1e6 if short else 0.0,
        "order.compares": tracer.counts["order.compares"] / passes,
        "hallsets.generate_s": total("hallsets.generate"),
        "hallsets.verify_hall_s": total("hallsets.verify_hall"),
        "hallsets.self_s": hallsets_self / passes,
        "oracle.cross_check_ms": total("oracle.is_member_bruteforce") * 1000,
        "lazard.report_s": total("lazard.lazard_report"),
        "lazard.run_s": total("lazard.lazard_run"),
        "lazard.finishing_step_s": total("lazard.finishing_step"),
        "lazard.steps": steps / passes,
        "analysis.k_bound_scan_s": total("analysis.k_bound_scan"),
    }
    out.update(probes)
    return out
