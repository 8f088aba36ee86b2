"""The benchmark's workloads: their inputs, how each op runs, and how its
output is checked against the stored reference digests.

Every op drives the library from outside through its public modules, one
op at a time in one thread (a closed loop with a single client).  Names
are looked up on the modules at call time so the tracer can patch them.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from partition_snf import checks, cli, snf, weights
from partition_snf.partitions import Cell, Partition

SELFTEST_SIZE = 12
SELFTEST_CHECKS = 3053  # checks run_selftest(12) makes at the seed commit

# Each long-rows slot is (parts after the arm, base arm length); the seed
# draws each arm from base - ARM_WINDOW .. base + ARM_WINDOW.  The window
# is narrow so the work per pass barely depends on the seed.  The last
# slot is the largest input.
LONG_ROW_SLOTS = (((), 120), ((1, 1), 160), ((1,), 200), ((), 260))
ARM_WINDOW = 3

# Inputs the library is known to crash or hang on; each runs once per
# long-rows run in a child process, under PROBE_CAP_S seconds.  They are
# reported on their own lines and not counted as ops, because the
# benchmark's ops must all succeed.
PROBES = (
    ("probe:snf-row-1000", ("snf", "1000")),
    ("probe:snf-column-1200", ("snf", ",".join(["1"] * 1200))),
    ("probe:weights-6x40", ("weights", "40,40,40,40,40,40")),
)
PROBE_CAP_S = 3.0


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class SelftestOp:
    """``run_selftest`` from a cold weight memo, as in a fresh process."""

    def __init__(self):
        self.key = f"selftest:{SELFTEST_SIZE}"

    def prepare(self) -> None:
        weights.clear_weight_cache()

    def run(self):
        return checks.run_selftest(SELFTEST_SIZE)

    def check(self, report, reference: str | None) -> str | None:
        if not report.ok or report.total != SELFTEST_CHECKS:
            return f"{report.total} checks, failures {report.failures[:3]}"
        if self.fingerprint(report) != reference:
            return "report differs from the reference"
        return None

    def fingerprint(self, report) -> str:
        return digest(canonical({"max_size": report.max_size,
                                 "counts": report.counts,
                                 "failures": report.failures}))


class CliOp:
    """``cli.main`` with JSON written to a file, as a fresh CLI process
    would run it: the weight memo is cleared first."""

    def __init__(self, key: str, argv: tuple[str, ...], out: Path):
        self.key = key
        self.out = out
        self.argv = [*argv, "--format", "json", "--out", str(out)]

    def prepare(self) -> None:
        weights.clear_weight_cache()
        self.out.unlink(missing_ok=True)

    def run(self):
        return cli.main(self.argv)

    def check(self, code, reference: str | None) -> str | None:
        if code != 0:
            return f"exit code {code}"
        data = self.out.read_bytes()
        envelope = json.loads(data)
        if envelope["verified"] is not True:
            return "not verified"
        result = envelope["result"]
        if envelope["command"] == "snf" and result["agree"] is not True:
            return "algorithms disagree"
        if envelope["command"] == "qcatalan" and not all(
            row["ok"] for row in result["rows"] if row["n"] > 0
        ):
            return "exponent check failed"
        if self.fingerprint(code) != reference:
            return "output bytes differ from the reference"
        return None

    def fingerprint(self, code) -> str:
        return digest(self.out.read_bytes())


class LibraryOp:
    """One certified reduction of the origin square, memo cleared first."""

    def __init__(self, algorithm: str, parts: tuple[int, ...]):
        self.algorithm = algorithm
        self.parts = parts
        self.key = f"{algorithm}:{','.join(map(str, parts))}"

    def prepare(self) -> None:
        weights.clear_weight_cache()

    def run(self):
        lam = Partition(self.parts)
        if self.algorithm == "recurrence":
            return snf.snf_recurrence(lam)
        side = lam.rank + 1
        return snf.snf_inductive(lam, side, side)

    def check(self, result, reference: str | None) -> str | None:
        lam = Partition(self.parts)
        expected = tuple(
            weights.leading_monomial(lam, Cell(k, k))
            for k in range(1, lam.rank + 2)
        )
        if result.diagonal != expected:
            return "diagonal differs from the leading monomials"
        if self.fingerprint(result) != reference:
            return "result differs from the reference"
        return None

    def fingerprint(self, result) -> str:
        return digest(canonical(result.to_json()))


def long_row_shapes(seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    return [
        (base + rng.randint(-ARM_WINDOW, ARM_WINDOW), *tail)
        for tail, base in LONG_ROW_SLOTS
    ]


def build(name: str, seed: int, out_dir: Path) -> list:
    """The ops of one pass, in order; the last op runs the largest input.

    ``selftest`` and ``staircase-json`` are exhaustive and fixed, so the
    seed changes nothing there.
    """
    if name == "selftest":
        # The only workload that runs checks, determinant and the
        # border-rectangle re-verification.  The weight memo stays warm
        # across all 272 partitions, so cheap memo hits, small matmuls and
        # small polynomial products dominate.
        return [SelftestOp()]
    if name == "staircase-json":
        # Staircase weights have thousands of terms, so cold enumeration
        # and the certify matmul take nearly all the time and reduction
        # almost none: few costly memo misses instead of many cheap hits.
        # The only workload that renders CLI output and JSON.
        def staircase(n):
            parts = ",".join(str(k) for k in range(n - 1, 0, -1))
            return CliOp(f"cli:snf:staircase-{n}", ("snf", parts),
                         out_dir / f"staircase-{n}.json")

        qcat = CliOp("cli:qcatalan:9", ("qcatalan", "9"), out_dir / "qcatalan-9.json")
        return [staircase(7), staircase(8), qcat, staircase(9)]
    if name == "long-rows":
        # 2x2 origin squares whose peeling depth is about the arm length
        # and whose monomials carry hundreds of cells: reduction and weight
        # enumeration dominate and certify barely runs.  The run also
        # probes the inputs that crash or hang (PROBES).
        return [
            LibraryOp(algorithm, shape)
            for shape in long_row_shapes(seed)
            for algorithm in ("recurrence", "inductive")
        ]
    raise ValueError(f"unknown workload {name!r}")


def all_long_row_ops() -> list[LibraryOp]:
    """Every op any seed can draw, for writing the reference."""
    return [
        LibraryOp(algorithm, (arm, *tail))
        for tail, base in LONG_ROW_SLOTS
        for arm in range(base - ARM_WINDOW, base + ARM_WINDOW + 1)
        for algorithm in ("recurrence", "inductive")
    ]
