"""Run one benchmark workload and print its metrics as the last line of JSON.

    python3 perfbench/run.py --workload paste-due --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The engine is imported from `src/` of the checkout this file sits in,
and from nowhere else. A run generates its inputs from `--seed`, sets
up several times (the median is `setup_s`), then repeats whole rounds
of the workload's operations, one at a time, until `--seconds` have
passed and at least MIN_OPS operations were timed. Outputs are checked
outside the timed region. With `--trace 1` every other round is traced
and the per-layer metrics are printed instead of the end-to-end ones.
Exits 1 when a check fails, 2 when the engine's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("paste-due", "edit-save", "extract-cli")
MIN_OPS = 100
SETUP_REPEATS = 3

# Host speed on a shared machine swings by half or more within a minute,
# moving the reference loops and the engine together. Each timing is
# scaled by REFERENCE_MS over the reference duration measured around
# it: the reported times are those of a host on which the reference
# takes REFERENCE_MS.
REFERENCE_MS = 2.5
REFERENCE_WINDOW = 2  # reference samples taken on each side of an operation
_REFERENCE_TEXT = (
    "int total = a + 1234;\nif (total > 10) {\n    total = total - b;\n}\n"
    "for (int i = 0; i < n; i++) {\n    acc += xs[i];\n}\n"
) * 40


class _Word:
    __slots__ = ("text", "line")

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line


def _arithmetic_loop() -> int:
    total = 0
    for i in range(60000):
        total += i * i % 7
    return total


def _scanning_loop() -> int:
    """Split a fixed text into word objects and count them, as a lexer would."""
    text = _REFERENCE_TEXT
    words = []
    counts: dict[str, int] = {}
    line = 1
    start = -1
    for i, ch in enumerate(text):
        if ch.isalnum() or ch == "_":
            if start < 0:
                start = i
            continue
        if start >= 0:
            words.append(_Word(text[start:i], line))
            counts[text[start:i]] = counts.get(text[start:i], 0) + 1
            start = -1
        if ch == "\n":
            line += 1
        elif not ch.isspace():
            words.append(_Word(ch, line))
    return len(words) + len(counts)


def reference_loop_ms() -> float:
    """Geometric mean of two fixed pure-Python loops that no engine change can move.

    One is arithmetic, one builds small objects and dict entries; the
    engine's operations mix both, and each alone tracks them less well.
    """
    start = perf_counter()
    _arithmetic_loop()
    middle = perf_counter()
    _scanning_loop()
    end = perf_counter()
    return math.sqrt((middle - start) * (end - middle)) * 1e3


def scales(samples: list[float], count: int) -> list[float]:
    """Per-operation factors from the samples taken before each op and after the last."""
    out = []
    for k in range(count):
        window = samples[max(0, k - REFERENCE_WINDOW + 1) : k + REFERENCE_WINDOW + 1]
        out.append(REFERENCE_MS / statistics.median(window))
    return out


def _import_engine() -> None:
    if not (SRC / "anticopypaster" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC / 'anticopypaster'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import anticopypaster

    if Path(anticopypaster.__file__).resolve().parent != SRC / "anticopypaster":
        print(f"error: imported the engine from {anticopypaster.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _guarded(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception:  # a check that crashes is a failed check, reported in full
        return ["check raised:\n" + traceback.format_exc()]


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, int]:
    import oracle
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if trace else None
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=OUT) as tmp:
        plan = workloads.WORKLOADS[workload](seed, Path(tmp), size)

        setup_times = []
        for _ in range(SETUP_REPEATS):
            plan.state = None
            gc.collect()
            host = [reference_loop_ms() for _ in range(3)]
            start = perf_counter()
            plan.state = plan.setup()
            elapsed = perf_counter() - start
            host += [reference_loop_ms() for _ in range(3)]
            setup_times.append(elapsed * REFERENCE_MS / statistics.median(host))

        problems: list[str] = []
        raw: list[float] = []  # wall seconds of every timed operation, in order
        traced_flags: list[bool] = []
        reference: list[float] = []  # reference loop before each operation, and after the last
        failed = 0
        gc.collect()
        began = perf_counter()
        round_no = 0
        while True:
            traced = tracer is not None and round_no % 2 == 1
            if traced:
                tracer.install()
            for index, op in enumerate(plan.ops):
                reference.append(reference_loop_ms())
                if traced:
                    tracer.begin_op()
                start = perf_counter()
                try:
                    result = op(plan.state)
                except Exception:  # an operation that raises counts as failed
                    result = None
                    failed += 1
                    problems.append(f"operation {index} raised:\n" + traceback.format_exc())
                raw.append(perf_counter() - start)
                traced_flags.append(traced)
                if traced:
                    tracer.end_op()
                if result is not None:
                    problems += _guarded(plan.check_op, index, result)
            if traced:
                tracer.uninstall()
            round_no += 1
            if perf_counter() - began >= seconds and len(raw) >= MIN_OPS and (tracer is None or round_no >= 2):
                break
        reference.append(reference_loop_ms())
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems += _guarded(plan.check_end, plan.state)

    attempted = len(raw)
    factors = scales(reference, attempted)
    times = [t * f for t, f, traced in zip(raw, factors, traced_flags) if not traced]
    traced_times = [t * f for t, f, traced in zip(raw, factors, traced_flags) if traced]
    untraced_raw = [t for t, traced in zip(raw, traced_flags) if not traced]
    print(f"{workload:12} {'raw op_ms_p50 (unscaled)':44} {statistics.median(untraced_raw) * 1e3:14.6f} ms")
    print(f"{workload:12} {'host speed factor (median)':44} {statistics.median(factors):14.6f} x")
    if tracer is None:
        metrics = {
            "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
            "op_ms_p90": (oracle.nearest_rank(times, 90) * 1e3, "ms"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        metrics = tracer.per_layer([f for f, traced in zip(factors, traced_flags) if traced])
        expected = workloads.SPAN_MAP[workload]
        mismatches = [f"{name} never fired" for name in expected["fires"]
                      if metrics[f"{name}.calls"][0] == 0]
        mismatches += [f"{name} fired" for name in expected["silent"]
                       if metrics[f"{name}.calls"][0] != 0]
        mismatches += [f"{name} could not be traced" for name in sorted(tracer.missing)]
        for line in mismatches:
            print(f"layer map: {workload}: {line}", file=sys.stderr)
        scanned = metrics["clones.methods_scanned"][0]
        metrics["clones.match_ratio"] = (
            metrics["clones.matches"][0] / scanned if scanned else 0.0, "ratio"
        )
        metrics["trace.map_mismatches"] = (len(mismatches), "count")
        untraced = sum(times) / len(times)
        metrics["trace.overhead_pct"] = (
            (sum(traced_times) / len(traced_times) / untraced - 1) * 100, "%"
        )
        tracer.write_jsonl(OUT / f"trace-{workload}-seed{seed}.jsonl")

    for problem in problems:
        print(f"check failed: {workload}: {problem}", file=sys.stderr)
    if failed:
        print(f"check failed: {workload}: {failed} of {attempted} operations failed", file=sys.stderr)
    correct = not problems and not failed
    for name, (value, unit) in metrics.items():
        print(f"{workload:12} {name:44} {value:14.6f} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="all: each workload in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny projects, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--size", args.size]).returncode
            for workload in WORKLOADS
        ]
        return max(codes)
    _import_engine()
    result, code = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
