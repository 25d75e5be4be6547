"""Benchmark for the nyldon package.

    python3 perfbench/run.py --workload factor-long --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` (correctness checks) and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The lines
before it are a readable report. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("factor-long", "cli-short", "sweep")
SETUP_PROBES = 5
SPAWN_PROBES = 3
MAX_TRACED_PASSES = 20  # bounds the spans kept for the fast in-process cli mix

# Machine-speed reference. On a shared 2-core x86-64 host, CPU speed drifted
# by up to ±30% within seconds (a fixed loop took 175-310 ms across one
# minute), which swamps any change worth detecting. Every time is therefore taken next to a
# fixed pure-Python loop and rescaled to the loop's nominal duration:
# normalized = wall * REF_NOMINAL_S / (the loop's time around the measurement).
# The loop runs in REF_CHUNKS pieces and keeps the fastest, so that being
# descheduled during one piece does not count as a slow CPU: the 95th
# percentile of the loop time fell from 2.8x its median to 1.1x.
REF_CHUNKS = 5
REF_CHUNK_LOOPS = 10_000
REF_NOMINAL_S = 0.0041

# Process start and imports drifted on their own, by 30-45% over tens of
# minutes while the loop above stayed steady: they are bound by file reads
# and shared-library loading. The drift was a fixed amount per process (a
# CLI spawn and a bare `import numpy` spawn both moved by about 80 ms), so
# spawn and import times are corrected by subtraction against a fresh
# interpreter that imports numpy, which is not part of the package:
# corrected = wall - (reference now - reference nominal), with the nominal
# values below for its wall time and for its in-process import time.
REF_SPAWN_CODE = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
REF_SPAWN_NOMINAL_S = 0.25
REF_IMPORT_NOMINAL_S = 0.17

END_TO_END = {
    # name -> unit
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_max_ms": "ms",
    "peak_rss_mb": "MB",
}


def reference() -> float:
    """Seconds the CPU takes right now for a fixed integer loop."""
    best = float("inf")
    for _ in range(REF_CHUNKS):
        start = perf_counter()
        total = 0
        for i in range(REF_CHUNK_LOOPS):
            total += i * i
        best = min(best, perf_counter() - start)
    return best * REF_CHUNKS


def import_package():
    """Import nyldon from this checkout's src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "nyldon", "__init__.py")):
        raise SystemExit(f"error: no package source at {SRC}/nyldon; run from a checkout")
    sys.path.insert(0, SRC)
    import nyldon

    if os.path.dirname(os.path.dirname(os.path.abspath(nyldon.__file__))) != SRC:
        raise SystemExit(f"error: imported nyldon from {nyldon.__file__}, not {SRC}")
    return nyldon


def reference_spawn() -> tuple[float, float]:
    """Wall seconds of a fresh interpreter that imports numpy, and the
    seconds of the import inside it."""
    start = perf_counter()
    out = subprocess.run([sys.executable, "-c", REF_SPAWN_CODE], check=True,
                         capture_output=True, text=True, cwd=ROOT)
    return perf_counter() - start, float(out.stdout)


def setup_probe(workload: str, seed: int) -> None:
    """Child process: print the seconds of import nyldon, then the seconds of
    input generation normalized by reference loops run around it."""
    start = perf_counter()
    import_package()
    import inputs

    imported = perf_counter()
    before = reference()
    start_inputs = perf_counter()
    inputs.build(workload, seed)
    seconds = perf_counter() - start_inputs
    print(imported - start, seconds * REF_NOMINAL_S * 2 / (before + reference()))


def spawn_ms(argv: list[str], env=None) -> float:
    start = perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, cwd=ROOT, env=env)
    return (perf_counter() - start) * 1000


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes: import is paid once per process.
    Each probe alternates with a reference spawn; the import part is
    corrected by the median reference import, the input part is already
    normalized."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    probes, refs = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT)
        probes.append([float(v) for v in out.stdout.split()])
        refs.append(reference_spawn()[1])
    shift = statistics.median(refs) - REF_IMPORT_NOMINAL_S
    return statistics.median(imported - shift + built for imported, built in probes)


def make_workload(name: str, seed: int, mode: str = "spawn"):
    import inputs
    import workloads

    if name == "factor-long":
        return workloads.FactorLong(inputs.build(name, seed))
    if name == "cli-short":
        return workloads.CliShort(inputs.build(name, seed), SRC, mode=mode)
    return workloads.Sweep()


class Runner:
    """Runs passes of a workload, timing each operation and checking it."""

    def __init__(self, workload, gate, tracer=None, spawn_reference: bool = False) -> None:
        self.workload = workload
        self.gate = gate
        self.tracer = tracer
        # Wall seconds of one reference spawn before each pass, if asked for.
        self.spawn_refs: list[float] | None = [] if spawn_reference else None
        # index in pass, label, wall seconds, normalized seconds
        self.samples: list[tuple[int, str, float, float]] = []
        self.pass_seconds: list[float] = []  # normalized, summed over the pass
        self.passes = 0

    def run_pass(self, traced: bool = False) -> float:
        tracer = self.tracer
        last: list = [None]
        spent = 0.0
        if self.spawn_refs is not None:
            self.spawn_refs.append(reference_spawn()[0])
        ref_before = reference()
        for index, (label, fn) in enumerate(self.workload.ops(self.passes, last)):
            if traced:
                tracer.active = True
                sid = tracer.begin("bench." + label)
            start = perf_counter()
            try:
                result = fn()
                ok = True
            except Exception as exc:  # a failing operation is a failed check, not a crash
                ok = False
                error = exc
            seconds = perf_counter() - start
            if traced:
                tracer.end(sid)
                tracer.active = False
            ref_after = reference()
            normalized = seconds * REF_NOMINAL_S * 2 / (ref_before + ref_after)
            ref_before = ref_after
            spent += normalized
            self.samples.append((index, label, seconds, normalized))
            if ok:
                last[0] = result
                self.guarded(label, self.workload.check, self.gate, label, result)
            else:
                last[0] = None
                self.gate.check(False, f"{label}: raised {error!r}")
        self.passes += 1
        self.pass_seconds.append(spent)
        if self.passes == 1:
            self.guarded("once", self.workload.once, self.gate)
        return spent

    def guarded(self, label: str, check, *args) -> None:
        """Run a check that calls the program; if it raises, that is one
        failed check and the run goes on."""
        try:
            check(*args)
        except Exception as exc:
            self.gate.check(False, f"{label}: check raised {exc!r}")

    def column(self, k: int) -> list[float]:
        """Wall (k = 2) or normalized (k = 3) seconds of every sample."""
        return [sample[k] for sample in self.samples]

    def position_medians(self, times: list[float]) -> list[float]:
        """For each position in a pass, the median of `times` (one per
        sample) of the operation there across passes."""
        by_index: dict[int, list[float]] = {}
        for sample, seconds in zip(self.samples, times):
            by_index.setdefault(sample[0], []).append(seconds)
        return [statistics.median(v) for v in by_index.values()]

    def slowest_label(self, times: list[float]) -> str:
        medians = self.position_medians(times)
        return self.samples[medians.index(max(medians))][1]

    def run_until(self, deadline: float, min_ops: int = 0) -> None:
        """Start another pass while it is expected to end before the deadline."""
        while True:
            began = perf_counter()
            self.run_pass()
            wall = perf_counter() - began
            if len(self.samples) >= min_ops and perf_counter() + wall > deadline:
                return


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report(lines: list[str], name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    lines.append(f"  {name:<36} {shown:>14} {unit:<10} {note}".rstrip())


def end_to_end_run(args, started: float, lines: list[str]):
    import gate as g

    deadline = started + args.seconds
    setup = setup_seconds(args.workload, args.seed)
    workload = make_workload(args.workload, args.seed)
    gate = g.Gate()
    spawning = args.workload == "cli-short"
    runner = Runner(workload, gate, spawn_reference=spawning)
    min_ops = getattr(workload, "MIN_SPAWNS", 0)
    runner.run_until(deadline, min_ops=min_ops)

    def timings(times: list[float]) -> dict[str, float]:
        medians = runner.position_medians(times)
        if workload.LATENCY_PER_SAMPLE:
            op_ms = [seconds * 1000 for seconds in times]
        else:
            # A mix of very different operations: percentiles of raw samples
            # would sit on the edge between two kinds, where the pass count
            # moves them.
            op_ms = [m * 1000 for m in medians]
        return {"pass_s": sum(medians), "op_p50_ms": statistics.median(op_ms),
                "op_p90_ms": percentile(op_ms, 90), "op_max_ms": max(medians) * 1000,
                "ops": len(op_ms)}

    if spawning:
        # Each operation is a whole process: correct by the reference spawns.
        shift = statistics.median(runner.spawn_refs) - REF_SPAWN_NOMINAL_S
        times = [seconds - shift for seconds in runner.column(2)]
    else:
        times = runner.column(3)
    norm, wall = timings(times), timings(runner.column(2))
    if workload.LATENCY_PER_SAMPLE:
        op_note = f"{norm['ops']} operations"
    else:
        op_note = f"per-operation medians: {norm['ops']} operations x {runner.passes} passes"
    if spawning:
        peak_kb = workload.peak_rss_kb
        rss_note = "largest CLI child process"
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_note = "this process"
    metrics = {
        "setup_s": setup,
        "pass_s": norm["pass_s"],
        "op_p50_ms": norm["op_p50_ms"],
        "op_p90_ms": norm["op_p90_ms"],
        "op_max_ms": norm["op_max_ms"],
        "peak_rss_mb": peak_kb / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes: import nyldon + inputs",
        "pass_s": f"sum of per-operation medians over {runner.passes} passes",
        "op_p50_ms": op_note,
        "op_p90_ms": op_note,
        "op_max_ms": f"slowest operation: {runner.slowest_label(times)}",
        "peak_rss_mb": rss_note,
    }
    basis = f"corrected by {len(runner.spawn_refs)} reference spawns" if spawning else "normalized by the reference loop"
    lines.append(f"end-to-end (untraced; times {basis}, setup by reference imports):")
    for name, unit in END_TO_END.items():
        report(lines, name, metrics[name], unit, notes[name])
    lines.append("wall-clock equivalents (not gated):")
    for name in ("pass_s", "op_p50_ms", "op_p90_ms", "op_max_ms"):
        report(lines, name, wall[name], name.rsplit("_", 1)[1])
    extra = dict(workload.summary(runner.samples))
    if spawning:
        extra["cli_p50_ms"] = (wall["op_p50_ms"], "ms wall")
        extra["cli_p90_ms"] = (wall["op_p90_ms"], "ms wall")
        extra["cli_spawns"] = (len(runner.samples), "count")
    if args.workload == "sweep":
        extra["sweep_s"] = (wall["pass_s"], "s wall")
    extra["error_rate"] = (gate.error_rate, f"({gate.failed}/{gate.attempted})")
    lines.append("workload metrics:")
    for name, (value, unit) in extra.items():
        report(lines, name, value, unit)
    return gate, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_run(args, started: float, lines: list[str]):
    import gate as g
    import layers
    import tracing
    from nyldon import LEX

    deadline = started + args.seconds
    env = dict(os.environ, PYTHONPATH=SRC)
    probes = {
        "cli.interp_floor_ms": statistics.median(
            spawn_ms([sys.executable, "-c", "pass"]) for _ in range(SPAWN_PROBES)),
        "cli.import_ms": statistics.median(
            spawn_ms([sys.executable, "-c", "import nyldon"], env) for _ in range(SPAWN_PROBES)),
    }
    tracer = tracing.Tracer()
    workload = make_workload(args.workload, args.seed, mode="inproc")
    counted = layers.counting_lex(tracer)
    gate = g.Gate()
    runner = Runner(workload, gate, tracer)

    def one_pass(traced: bool) -> tuple[float, list[tuple]]:
        """One pass; a traced one with the counting order and the wrappers in
        place, an untraced one with plain LEX and nothing wrapped."""
        if hasattr(workload, "lex"):
            workload.lex = counted if traced else LEX
        first = len(runner.samples)
        began = perf_counter()
        if traced:
            layers.install(tracer)
        try:
            runner.run_pass(traced)
        finally:
            tracer.uninstall()
        return perf_counter() - began, runner.samples[first:]

    # Untraced and traced passes alternate, so that drift in CPU speed
    # falls on both alike; the overhead compares their normalized medians.
    untraced, traced, untraced_samples = [], [], []
    while True:
        wall, samples = one_pass(False)
        untraced.append(runner.pass_seconds[-1])
        untraced_samples += samples
        wall += one_pass(True)[0]
        traced.append(runner.pass_seconds[-1])
        if len(traced) == MAX_TRACED_PASSES or perf_counter() + wall > deadline:
            break
    probes["cli.inproc_ms"] = (
        statistics.fmean(sample[2] for sample in untraced_samples) * 1000
        if args.workload == "cli-short" else 0.0
    )
    probes["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    reach = layers.ops_reaching(tracer, "lazard.lazard_run")
    rerun = [fn for label, fn in workload.ops(0, [None]) if label in reach]
    peaks = layers.lazard_run_peaks(rerun)
    probes["lazard.run_peak_mb"] = max(peaks, default=0.0)

    # The paper's bound, checked on every factor_ranges call of the traced passes.
    for span in tracer.spans:
        if span[tracing.NAME] == "fastfactor.factor_ranges" and span[tracing.ATTRS]:
            a = span[tracing.ATTRS]
            g.check_comparisons(gate, "traced factor_ranges", a["letters"], a["comparisons"])

    metrics = layers.metrics(tracer, len(traced), probes)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write(trace_path)

    lines.append(f"per-layer (traced, per pass, {len(traced)} traced passes; normalized pass "
                 f"medians: untraced {statistics.median(untraced):.4g} s, traced {statistics.median(traced):.4g} s):")
    for name, (unit, _) in layers.METRICS.items():
        report(lines, name, metrics[name], unit)
    lines.append("self time per layer (s per pass):")
    for layer, seconds in sorted(tracer.layer_self().items(), key=lambda kv: -kv[1]):
        report(lines, layer, seconds / len(traced), "s")
    lines.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
    return gate, {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in layers.METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    started = perf_counter()
    nyldon = import_package()
    import numpy

    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"python {sys.version.split()[0]}  numpy {numpy.__version__}  nyldon {nyldon.__version__}  "
        f"nproc {os.cpu_count()}",
    ]
    gate, metrics = (traced_run if args.trace else end_to_end_run)(args, started, lines)
    lines.append(f"checks: {gate.attempted} attempted, {gate.failed} failed; "
                 f"wall {perf_counter() - started:.1f} s")
    for failure in gate.failures:
        lines.append(f"  FAILED {failure}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
