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

The envelope holds the polynomials and results themselves.
:func:`_json_chunks` lays it out with ``json.dumps(envelope, indent=2)``
and fills each polynomial's place with its rendering by
``polynomials._polynomial_json``, from its sorted terms, once per
polynomial and depth: the blocks of two agreeing algorithms share their
polynomials, so those are rendered once.  The whole output is built
before any of it is written, so a command that runs out of memory
prints nothing on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import CHECK_NAMES, _row_sum, run_selftest
from .checks import alternating_row_sum  # noqa: F401  (the benchmark tracer patches it here)
from .errors import PartitionSnfError, VerificationFailed
from .partitions import Cell, Partition, parse_partition
from .polynomials import (
    Monomial,
    Polynomial,
    _polynomial_json,
    letter_naming,
    render,
)
from .qcatalan import (
    expected_snf_exponents,
    q_catalan_table,
    q_coefficients,
    render_q,
    staircase_snf_diagonal,
)
from .recurrence import row_coefficients  # noqa: F401  (the benchmark tracer patches it here)
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
            if args.format == "json":
                cells_payload.append(
                    {
                        "cell": [r, c],
                        "border": ext.on_border(cell),
                        "text": text,
                        "polynomial": poly,
                    }
                )
    return lines, {"row_lengths": list(ext.row_lengths), "cells": cells_payload}, 0


def _snf_lines(result: SnfResult, naming) -> list[str]:
    """The text lines of one result; rendering them costs more than the
    reduction on long inputs, so ``--format json`` never calls this."""
    # Reductions return only certified results; a failure raises
    # VerificationFailed, which main turns into exit code 2.
    return [
        f"algorithm: {result.algorithm}",
        "verified: true",
        "diagonal: " + " | ".join(render(p, naming) for p in result.diagonal),
        "P:",
        *_matrix_lines(result.P, naming),
        "Q:",
        *_matrix_lines(result.Q, naming),
    ]


def _cmd_snf(args):
    lam = args.partition
    naming = _naming_for(lam, args.naming)
    if args.rect is not None and args.algorithm != "inductive":
        raise _UsageError("--rect requires --algorithm inductive")
    text = args.format == "text"
    lines = [f"partition: {lam}"]
    if args.algorithm == "both":
        # Agreeing results share their transforms and diagonal, which the
        # JSON writer renders once.
        by_rows, by_peeling = snf_both(lam)
        agree = by_rows.agrees_with(by_peeling)
        if text:
            rows_lines = _snf_lines(by_rows, naming)
            # Equal results print alike but for their algorithm line.
            peeling_lines = (
                [f"algorithm: {by_peeling.algorithm}", *rows_lines[1:]]
                if agree
                else _snf_lines(by_peeling, naming)
            )
            lines += rows_lines + peeling_lines
            lines.append(f"agree: {'true' if agree else 'false'}")
        result = {"recurrence": by_rows, "inductive": by_peeling, "agree": agree}
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
    if text:
        lines += _snf_lines(reduced, naming)
    return lines, reduced, 0


def _cmd_recurrence(args):
    lam = args.partition
    # One weight set serves the coefficients and every column; it refuses
    # |lam| past the limit before any coefficient is walked, and walks
    # each one once.
    weights = _weights(lam.parts)
    naming = _naming_for(lam, args.naming)
    if args.j == "all":
        columns = list(range(1, lam.rank + 2))
    else:
        try:
            columns = [int(args.j)]
        except ValueError:
            raise _UsageError(f"--j must be an integer or 'all', got {args.j!r}")
    # The weight set's coefficients are signed: index i carries (-1)^i.
    coefficients = [
        weights.layout.decode({k: (-1) ** i * c for k, c in signed.items()})
        for i, signed in enumerate(weights.coefficients(lam.parts))
    ]
    lines = [f"partition: {lam}"]
    for i, coeff in enumerate(coefficients):
        lines.append(f"coefficient[{i}] = {render(coeff, naming)}")
    origin_monomial = leading_monomial(lam, Cell(1, 1))
    checks = []
    code = 0
    for j in columns:
        residual = weights.layout.decode(_row_sum(weights, j))
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
                "residual": residual,
                "expected": expected,
                "ok": ok,
            }
        )
    result = {
        "coefficients": coefficients,
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


def _as_is(value):
    return value


def _json_chunks(value) -> list[str]:
    """``json.dumps(value, indent=2)``, as a list of strings to write.

    ``value`` is built of what ``json`` writes, polynomials and results.
    ``json`` lays it out with the string ``"\\x00"`` in each polynomial's
    place, in document order; each hole is then filled by
    :func:`~partition_snf.polynomials._polynomial_json` at the depth its
    line's indent gives, once per polynomial and depth.
    """
    polynomials: list[Polynomial] = []

    def hole(value):
        if isinstance(value, Polynomial):
            polynomials.append(value)
            return "\x00"
        if isinstance(value, SnfResult):
            return value._json(_as_is)
        raise TypeError(f"cannot write {type(value).__name__} as JSON")

    pieces = json.dumps(value, indent=2, default=hole).split('"\\u0000"')
    if len(pieces) != len(polynomials) + 1:
        raise ValueError("a string in the output reads as a polynomial's hole")
    chunks = [pieces[0]]
    rendered: dict[tuple[int, int], str] = {}
    for poly, before, after in zip(polynomials, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1 :]
        key = id(poly), (len(line) - len(line.lstrip(" "))) // 2
        if key not in rendered:
            rendered[key] = _polynomial_json(poly, key[1])
        chunks += (rendered[key], after)
    return chunks


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
        # they stay inside this try.  The output is built in full before
        # any of it is written.
        if args.format == "text":
            text = "\n".join(lines)
            chunks = [text] if text.endswith("\n") else [text, "\n"]
        else:
            envelope = {"command": args.command, "input": echo, "result": result}
            if args.command != "weights":  # a weight grid has nothing to verify
                envelope["verified"] = code == 0
            chunks = _json_chunks(envelope)
            chunks.append("\n")
        if not args.out:
            try:
                sys.stdout.writelines(chunks)
                sys.stdout.flush()
            except BrokenPipeError:
                # The reader is gone; the flush at exit goes to the null device.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return 1
            return code
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return code
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, PartitionSnfError) as exc:
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
