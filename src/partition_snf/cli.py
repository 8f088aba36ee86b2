"""Command line front end.

Subcommands: ``weights`` (the extended-diagram grid of weight
polynomials), ``snf`` (either or both reductions, optionally on a border
rectangle), ``recurrence`` (row coefficients and residuals), ``qcatalan``
(the q-analog table with normal-form exponent checks), and ``selftest``
(the exhaustive property suites).

Exit codes: 0 success, 1 usage or input errors, 2 verification failures.
Output is deterministic.  ``main`` parses the partition once and, under
``--format json``, wraps each command's result in the one envelope:
``command``, ``input`` (the parsed arguments, in declaration order),
``result`` and, for every command but ``weights``, ``verified``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import CHECK_NAMES, _row_sum, run_selftest
from .checks import alternating_row_sum  # noqa: F401  (the benchmark tracer patches it here)
from .errors import PartitionSnfError, VerificationFailed
from .partitions import Cell, Partition, parse_partition
from .polynomials import (
    Monomial,
    Polynomial,
    letter_naming,
    polynomial_to_json,
    render,
)
from .qcatalan import (
    expected_snf_exponents,
    q_catalan_table,
    q_coefficients,
    render_q,
    staircase_snf_diagonal,
)
from .recurrence import row_coefficients
from .snf import SnfResult, _weights, snf_both, snf_inductive, snf_recurrence
from .snf import verify_snf  # noqa: F401  (the benchmark tracer patches it here)
from .weights import clear_weight_cache, leading_monomial, weight_polynomial

__all__ = ["build_parser", "main", "run"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="partition-snf",
        description="Weight matrices of partitions and their exact normal forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        sp.add_argument("--out", metavar="FILE", help="write output to FILE")

    w = sub.add_parser("weights", help="weight polynomial of every extended cell")
    w.add_argument("partition", help="comma-separated parts; empty string allowed")
    w.add_argument("--naming", choices=("letters", "coords"), default="coords")
    common(w)

    s = sub.add_parser("snf", help="normal form with explicit transforms")
    s.add_argument("partition")
    s.add_argument(
        "--algorithm", choices=("recurrence", "inductive", "both"), default="both"
    )
    s.add_argument(
        "--rect",
        nargs=2,
        type=int,
        metavar=("D", "E"),
        help="reduce the DxE border rectangle instead of the origin square",
    )
    s.add_argument("--naming", choices=("letters", "coords"), default="coords")
    common(s)

    r = sub.add_parser("recurrence", help="row coefficients and residuals")
    r.add_argument("partition")
    r.add_argument("--j", default="all", help="column index or 'all'")
    r.add_argument("--naming", choices=("letters", "coords"), default="coords")
    common(r)

    q = sub.add_parser("qcatalan", help="q-analog table with normal-form checks")
    q.add_argument("n_max", type=int)
    common(q)

    t = sub.add_parser("selftest", help="exhaustive identity suites")
    t.add_argument("max_size", type=int)
    common(t)

    return parser


def _naming_for(lam: Partition, mode: str):
    return letter_naming(lam.cells()) if mode == "letters" else None


def _matrix_lines(matrix, naming) -> list[str]:
    return [
        "  " + " | ".join(render(entry, naming) for entry in row)
        for row in matrix.entries
    ]


def _cmd_weights(args):
    lam = args.partition
    naming = _naming_for(lam, args.naming)
    ext = lam.extended
    lines = [f"partition: {lam}"]
    cells_payload = []
    for r, length in enumerate(ext.row_lengths, start=1):
        for c in range(1, length + 1):
            cell = Cell(r, c)
            poly = weight_polynomial(lam, cell)
            text = render(poly, naming)
            lines.append(f"({r},{c}) {text}")
            # Only --format json prints the payload, as in _snf_block: on
            # large grids its terms cost more than the text.
            if args.format == "json":
                cells_payload.append(
                    {
                        "cell": [r, c],
                        "border": ext.on_border(cell),
                        "text": text,
                        "polynomial": polynomial_to_json(poly),
                    }
                )
    return lines, {"row_lengths": list(ext.row_lengths), "cells": cells_payload}, 0


def _snf_block(result: SnfResult, naming, fmt: str) -> tuple[list[str], dict | None]:
    """The text lines or the JSON of one result, whichever ``fmt`` asks
    for; the other is left empty, since rendering either one costs more
    than the reduction on long inputs."""
    # Reductions return only certified results; a failure raises
    # VerificationFailed, which main turns into exit code 2.
    if fmt == "json":
        return [], result.to_json()
    lines = [
        f"algorithm: {result.algorithm}",
        "verified: true",
        "diagonal: " + " | ".join(render(p, naming) for p in result.diagonal),
        "P:",
        *_matrix_lines(result.P, naming),
        "Q:",
        *_matrix_lines(result.Q, naming),
    ]
    return lines, None


def _cmd_snf(args):
    lam = args.partition
    naming = _naming_for(lam, args.naming)
    if args.rect is not None and args.algorithm != "inductive":
        raise _UsageError("--rect requires --algorithm inductive")
    lines = [f"partition: {lam}"]
    if args.algorithm == "both":
        by_rows, by_peeling = snf_both(lam)
        agree = by_rows.agrees_with(by_peeling)
        rows_lines, rows_json = _snf_block(by_rows, naming, args.format)
        if not agree:
            peeling_lines, peeling_json = _snf_block(by_peeling, naming, args.format)
        elif rows_json is None:
            # Equal results print alike but for their algorithm line, so
            # the shared transforms and diagonal are rendered once.
            peeling_lines = [f"algorithm: {by_peeling.algorithm}", *rows_lines[1:]]
            peeling_json = None
        else:
            peeling_lines = []
            peeling_json = {**rows_json, "algorithm": by_peeling.algorithm}
        lines += rows_lines + peeling_lines
        lines.append(f"agree: {'true' if agree else 'false'}")
        result = {"recurrence": rows_json, "inductive": peeling_json, "agree": agree}
        return lines, result, 0 if agree else 2
    if args.algorithm == "recurrence":
        reduced = snf_recurrence(lam)
    elif args.rect is not None:
        d, e = args.rect
        lines.append(f"rectangle: {d}x{e}")
        reduced = snf_inductive(lam, d, e)
    else:
        side = lam.rank + 1
        reduced = snf_inductive(lam, side, side)
    block, result = _snf_block(reduced, naming, args.format)
    return lines + block, result, 0


def _cmd_recurrence(args):
    lam = args.partition
    # One weight set serves every column; it refuses |lam| past the limit
    # before any coefficient is walked.
    weights = _weights(lam)
    naming = _naming_for(lam, args.naming)
    if args.j == "all":
        columns = list(range(1, lam.rank + 2))
    else:
        try:
            columns = [int(args.j)]
        except ValueError:
            raise _UsageError(f"--j must be an integer or 'all', got {args.j!r}")
    coefficients = row_coefficients(lam)
    lines = [f"partition: {lam}"]
    for i, coeff in enumerate(coefficients):
        lines.append(f"coefficient[{i}] = {render(coeff, naming)}")
    origin_monomial = leading_monomial(lam, Cell(1, 1))
    checks = []
    code = 0
    for j in columns:
        residual = weights.layout.decode(_row_sum(weights, lam, j))
        expected = origin_monomial if j == 1 else Polynomial.zero()
        ok = residual == expected
        if not ok:
            code = 2
        lines.append(
            f"j={j}: residual {render(residual, naming)}, "
            f"expected {render(expected, naming)}, {'ok' if ok else 'FAIL'}"
        )
        checks.append(
            {
                "j": j,
                "residual": polynomial_to_json(residual),
                "expected": polynomial_to_json(expected),
                "ok": ok,
            }
        )
    result = {
        "coefficients": [polynomial_to_json(c) for c in coefficients],
        "checks": checks,
    }
    return lines, result, code


def _cmd_qcatalan(args):
    if args.n_max < 0:
        raise _UsageError("n_max must be nonnegative")
    lines = []
    rows = []
    code = 0
    table = q_catalan_table(args.n_max)
    for n, poly in enumerate(table):
        rendered = render_q(poly)
        if n == 0:
            lines.append(f"n=0 {rendered}")
            rows.append({"n": 0, "poly": q_coefficients(poly), "rendered": rendered})
            continue
        exponents = expected_snf_exponents(n)
        actual = staircase_snf_diagonal(n)
        ok = len(actual) == len(exponents) and all(
            entry == Polynomial.from_monomial(Monomial({Cell(1, 1): k}))
            for entry, k in zip(actual, exponents)
        )
        if not ok:
            code = 2
        exp_text = ",".join(str(k) for k in exponents)
        lines.append(
            f"n={n} {rendered} exponents={exp_text} {'ok' if ok else 'FAIL'}"
        )
        rows.append(
            {
                "n": n,
                "poly": q_coefficients(poly),
                "rendered": rendered,
                "snf_exponents": list(exponents),
                "ok": ok,
            }
        )
    return lines, {"rows": rows}, code


def _cmd_selftest(args):
    if args.max_size < 1:
        raise _UsageError("max_size must be at least 1")
    report = run_selftest(args.max_size)
    lines = [f"selftest max_size={args.max_size}"]
    for name in CHECK_NAMES:
        lines.append(f"{name}: {report.counts[name]} checks")
    for failure in report.failures:
        lines.append(f"FAIL {failure}")
    lines.append(
        f"result: {'PASS' if report.ok else 'FAIL'} ({report.total} checks, "
        f"{len(report.failures)} failures)"
    )
    result = {"counts": report.counts, "failures": report.failures}
    return lines, result, 0 if report.ok else 2


_DISPATCH = {
    "weights": _cmd_weights,
    "snf": _cmd_snf,
    "recurrence": _cmd_recurrence,
    "qcatalan": _cmd_qcatalan,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # The echo of the parsed input, in the order the arguments are
        # declared; the partition is echoed as its list of parts.
        echo = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
        if "partition" in echo:
            args.partition = parse_partition(args.partition)
            echo["partition"] = list(args.partition)
        lines, result, code = _DISPATCH[args.command](args)
        # Building and writing the output can run out of memory too, so
        # they stay inside this try.
        if args.format == "text":
            output = "\n".join(lines)
        else:
            envelope = {"command": args.command, "input": echo, "result": result}
            if args.command != "weights":  # a weight grid has nothing to verify
                envelope["verified"] = code == 0
            output = json.dumps(envelope, indent=2)
        if not output.endswith("\n"):
            output += "\n"
        if not args.out:
            sys.stdout.write(output)
            return code
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(output)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except PartitionSnfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, SystemError):
        # CPython 3.11 can report an allocation that fails inside a
        # comprehension as "SystemError: error return without exception
        # set", so that is an out-of-memory error too.  Free the weight
        # memo, then print one fixed line: reporting the error needs
        # memory too, and formatting the exception more.
        clear_weight_cache()
        print("error: out of memory", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
