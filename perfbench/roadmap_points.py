"""Measure the single points quoted in ROADMAP.md's "Baseline" section, so the
benchmark's first results can be compared with them (results/BASELINE.md).

    python3 perfbench/roadmap_points.py

Each point is the median of REPEAT runs in this process, or of fresh
processes for the spawn points. Run it from the root of a source checkout.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from nyldon import BINARY, LEX, Word, fastfactor, hallsets, lazard, melancon  # noqa: E402

import inputs  # noqa: E402

REPEAT = 3


def timed(fn, repeat: int) -> float:
    samples = []
    for _ in range(repeat):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def spawn(argv: list[str], repeat: int) -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    return timed(lambda: subprocess.run(argv, check=True, stdout=subprocess.DEVNULL,
                                        cwd=ROOT, env=env), repeat)


def import_seconds(module: str, repeat: int) -> float:
    """Import time inside a fresh interpreter, without interpreter start-up."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, cwd=ROOT, env=env).stdout)
        for _ in range(repeat)
    )


def main() -> int:
    r = REPEAT
    rng = random.Random(0)
    rows = []

    for n in (10**3, 10**4, 10**5):
        w = Word(tuple(rng.randrange(2) for _ in range(n)), BINARY)
        rows.append((f"nyldon_factorize random n={n}", timed(lambda: fastfactor.nyldon_factorize(w), r), "s"))
    rows.append(("ComparisonEngine build n=100000",
                 timed(lambda: fastfactor.ComparisonEngine(w.letters), r), "s"))
    rows.append(("naive slice factor_ranges random n=100000",
                 timed(lambda: fastfactor.factor_ranges(w.letters, mode="naive"), r), "s"))
    w4 = Word(tuple(rng.randrange(2) for _ in range(10**4)), BINARY)
    rows.append(("melancon.factorize random n=10000", timed(lambda: melancon.factorize(w4), r), "s"))
    rows.append(("melancon.conjugate random n=10000", timed(lambda: melancon.conjugate(w4), r), "s"))
    for n in (15, 18, 20):
        rows.append((f"lazard_report binary L={n}", timed(lambda: lazard.lazard_report(BINARY, n), r), "s"))
    rows.append(("lazard_run binary L=13", timed(lambda: lazard.lazard_run(BINARY, 13), r), "s"))
    tracemalloc.start()
    lazard.lazard_run(BINARY, 13)
    rows.append(("lazard_run binary L=13 tracemalloc peak", tracemalloc.get_traced_memory()[1] / 2**20, "MB"))
    tracemalloc.stop()
    for n in (10, 12):
        rows.append((f"generate(LEX, BINARY, {n})", timed(lambda: hallsets.generate(LEX, BINARY, n), r), "s"))

    # Growth of contraction on the families where factor-long finds it slow.
    for family in ("one_zeros", "zeros_one", "ones_zero", "fibonacci", "random"):
        for n in (500, 1000, 2000, 4000):
            word = Word(inputs.primitive_variant(inputs.family_letters(family, n, rng)), BINARY)
            rows.append((f"melancon.conjugate {family} n={n}", timed(lambda: melancon.conjugate(word), 1), "s"))

    spawns = max(r, 5)
    rows.append(("spawn python -c pass", spawn([sys.executable, "-c", "pass"], spawns), "s"))
    rows.append(("spawn python -c 'import nyldon'", spawn([sys.executable, "-c", "import nyldon"], spawns), "s"))
    rows.append(("spawn nyldon factor 10110100111010",
                 spawn([sys.executable, "-m", "nyldon.cli", "factor", "10110100111010"], spawns), "s"))
    rows.append(("spawn nyldon lazard --max-len 13",
                 spawn([sys.executable, "-m", "nyldon.cli", "lazard", "--max-len", "13"], r), "s"))
    rows.append(("largest child peak RSS (the lazard spawns)",
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"))
    rows.append(("import nyldon, in-process", import_seconds("nyldon", spawns), "s"))
    rows.append(("import numpy, in-process", import_seconds("numpy", spawns), "s"))

    for name, value, unit in rows:
        print(f"{name:<44} {value:>10.4g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
