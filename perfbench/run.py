"""Benchmark of the partition_snf library, run from the root of a checkout.

    python3 perfbench/run.py --workload selftest --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

One process, one thread, a closed loop: ops run one at a time.  A pass
runs every op of the workload once; passes repeat until ``--seconds`` is
used up, and times are medians over passes.  Every output is checked
against ``reference.json``.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 1 when an output check fails.

End-to-end metrics: ``setup_s`` is the median time of fresh interpreters
that import the library and build the inputs; ``wall_s`` and
``slowest_op_s`` are the median pass time and the median time of the
pass's last op, which runs the largest input; ``peak_rss_mb`` is this
process's peak resident memory; ``ok_share`` is the share of distinct
inputs whose every run passed (one minus the ``failed_share`` printed
above the JSON line).

``long-rows`` also runs the over-limit probes once per run.  Their
outcome is printed on ``probe`` lines only: they are not ops, so they
count in neither ``attempted``, ``failed`` nor ``ok_share``.

With ``--trace 1`` the first passes run untraced and the rest under the
tracer; counts come from the first traced pass, so they repeat exactly,
and its spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("selftest", "staircase-json", "long-rows")
MIN_PASSES = 3
SETUP_REPEATS = 11
PROBE_MEMORY_BYTES = 1 << 30

# Fresh interpreter that imports the library and builds the workload's
# inputs, which is everything a run does before its first op.
SETUP_SNIPPET = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
    "import workloads; workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))"
)
CLI_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from partition_snf.cli import run; run()"
)


def load_library() -> None:
    """Import partition_snf from this checkout's ``src`` and nowhere else."""
    package = SRC / "partition_snf"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no library source at {package}")
    sys.path.insert(0, str(SRC))
    import partition_snf

    if Path(partition_snf.__file__).resolve().parent != package:
        sys.exit(f"error: partition_snf imported from {partition_snf.__file__}")


def calibrate() -> float:
    """Best of three runs of a fixed pure-Python loop, to tell host drift
    apart from a regression.  Not a gated metric."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        best = min(best, perf_counter() - start)
    return best


class Tally:
    """Op executions attempted and failed, and which inputs failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.inputs: set[str] = set()
        self.failing: set[str] = set()
        self.errors: list[str] = []

    def record(self, key: str, error: str | None) -> None:
        self.attempted += 1
        self.inputs.add(key)
        if error is not None:
            self.failed += 1
            self.failing.add(key)
            self.errors.append(f"{key}: {error}")

    @property
    def correct(self) -> bool:
        return not self.errors

    @property
    def failed_share(self) -> float:
        return len(self.failing) / len(self.inputs)


def run_pass(ops, reference, tally, tracer=None) -> list[float]:
    """Run every op once; returns each op's seconds to a checked result."""
    times = []
    for op in ops:
        op.prepare()
        span = tracer.open(f"op:{op.key}") if tracer else None
        start = perf_counter()
        # A broken library or malformed output fails the op, not the run.
        try:
            output = op.run()
        except Exception as exc:
            output, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        times.append(perf_counter() - start)
        if tracer:
            tracer.close(span)
        if error is None:
            try:
                error = op.check(output, reference.get(op.key))
            except Exception as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        tally.record(op.key, error)
        if tracer and hasattr(op, "out") and op.out.exists():
            tracer.counts["cli.bytes_out"] += op.out.stat().st_size
    return times


def repeat_passes(run, seconds: float, min_passes: int) -> list:
    """Call ``run`` until another pass would overrun ``seconds``."""
    start = perf_counter()
    results = []
    while True:
        results.append(run())
        elapsed = perf_counter() - start
        passes = len(results)
        if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
            return results


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC), str(HERE),
             workload, str(seed), str(OUT)],
            check=True, cwd=ROOT,
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))


def run_probes(workloads) -> None:
    """Each over-limit input passes if the CLI exits 0, 1 or 2 within the
    cap and prints no traceback.  The outcome is printed, not tallied."""
    for key, argv in workloads.PROBES:
        out = OUT / "probe.out"
        try:
            done = subprocess.run(
                [sys.executable, "-I", "-c", CLI_SNIPPET, str(SRC), *argv,
                 "--out", str(out)],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=workloads.PROBE_CAP_S, preexec_fn=_limit_memory,
            )
        except subprocess.TimeoutExpired:
            error = f"no result within {workloads.PROBE_CAP_S} s"
        else:
            stderr = done.stderr.decode(errors="replace")
            if "Traceback" in stderr:
                error = "traceback: " + stderr.strip().splitlines()[-1][:200]
            elif done.returncode not in (0, 1, 2):
                error = f"exit code {done.returncode}"
            else:
                error = None
        out.unlink(missing_ok=True)
        print(f"probe {key}: {'passed' if error is None else 'failed: ' + error}")


def end_to_end(passes, setup_s: float, tally) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(p) for p in passes), "s"),
        "slowest_op_s": (statistics.median(p[-1] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (1 - tally.failed_share, "ratio"),
    }


def traced(ops, reference, tally, seconds: float) -> tuple:
    """Untraced passes for half the time, then traced passes.  Times are
    medians over traced passes; counts come from the first one."""
    from tracer import Tracer

    untraced = repeat_passes(lambda: run_pass(ops, reference, tally), seconds / 2, 1)

    def one_traced_pass():
        tracer = Tracer()
        tracer.install()
        try:
            times = run_pass(ops, reference, tally, tracer)
        finally:
            tracer.uninstall()
        return tracer, times

    runs = repeat_passes(one_traced_pass, seconds / 2, 1)
    base = statistics.median(sum(t) for t in untraced)
    layers = [tracer.metrics(sum(times) - base) for tracer, times in runs]
    first = runs[0][0]
    if any(tracer.counts != first.counts for tracer, _ in runs[1:]):
        print("warning: counts differ between traced passes", file=sys.stderr)
    metrics = {
        name: (statistics.median(layer[name][0] for layer in layers), unit)
        if unit == "s" else (value, unit)
        for name, (value, unit) in layers[0].items()
    }
    return metrics, first


def write_spans(tracer, metrics: dict, args, calibration: float) -> None:
    origin = tracer.spans[0][1]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "calibration_s": calibration,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "spans": [
            [name, round(start - origin, 7), round(end - origin, 7), parent]
            for name, start, end, parent in tracer.spans
        ],
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(record, separators=(",", ":")))
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


def run_workload(args) -> int:
    load_library()
    import workloads

    OUT.mkdir(exist_ok=True)
    ops = workloads.build(args.workload, args.seed, OUT)
    reference = json.loads((HERE / "reference.json").read_text())
    calibration = calibrate()
    print(f"calibration: python {platform.python_version()}, loop {calibration:.4f} s")
    tally = Tally()
    if args.workload == "long-rows":
        run_probes(workloads)
    if args.trace:
        metrics, tracer = traced(ops, reference, tally, args.seconds)
        write_spans(tracer, metrics, args, calibration)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        passes = repeat_passes(
            lambda: run_pass(ops, reference, tally), args.seconds, MIN_PASSES
        )
        for i, op in enumerate(ops):
            times = " ".join(f"{p[i]:.4f}" for p in passes)
            print(f"op {op.key}: {times} s")
        metrics = end_to_end(passes, setup_s, tally)
    for error in tally.errors:
        print(f"CHECK FAILED: {error}")
    print(f"failed_share: {tally.failed_share:.4f} of {len(tally.inputs)} inputs")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.correct else 1


def run_all(args) -> int:
    """Every workload in its own process; nonzero if any check failed."""
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        )
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
