"""Span tracer that wraps the library's public functions from outside.

Module-level names are bound at import time (``from .weights import
weight_at``), so each name is patched in every module that looks it up,
and methods are patched on their class.  Every wrapped call records a span
``(name, start, end, parent)``; a few hot methods only bump counters.
Spans stay in memory until the benchmark writes them out.

A span's self time is its duration minus the durations of its direct
children.  The run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from partition_snf import checks, cli, qcatalan, recurrence, snf, weights
from partition_snf.partitions import Partition, subdiagram_shape
from partition_snf.polynomials import Polynomial
from partition_snf.weights import PolyMatrix

LOOKUP_HIT = "weights.hit"
LOOKUP_MISS = "weights.miss"

# (module, attribute, span name): one entry per place a caller looks a
# name up.  The benchmark itself calls through snf, checks and cli.
SPANNED = (
    (snf, "_certify", "snf.certify"),
    (snf, "snf_recurrence", "snf.reduce_recurrence"),
    (checks, "snf_recurrence", "snf.reduce_recurrence"),
    (cli, "snf_recurrence", "snf.reduce_recurrence"),
    (snf, "snf_inductive", "snf.reduce_inductive"),
    (checks, "snf_inductive", "snf.reduce_inductive"),
    (cli, "snf_inductive", "snf.reduce_inductive"),
    (qcatalan, "snf_inductive", "snf.reduce_inductive"),
    (checks, "verify_snf", "snf.reverify"),
    (cli, "verify_snf", "snf.reverify"),
    (checks, "determinant", "snf.determinant"),
    (snf, "row_coefficients", "recurrence.row_coefficients"),
    (cli, "row_coefficients", "recurrence.row_coefficients"),
    (checks, "alternating_row_sum", "recurrence.row_sum"),
    (cli, "alternating_row_sum", "recurrence.row_sum"),
    (cli, "q_catalan_table", "qcatalan"),
    (cli, "staircase_snf_diagonal", "qcatalan"),
    (checks, "run_selftest", "checks"),
    (cli, "run_selftest", "checks"),
    (cli, "main", "cli"),
)
WEIGHT_LOOKUPS = (weights, snf, recurrence)


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._shapes: set = set()
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def _weight_lookup(self, fn):
        @functools.wraps(fn)
        def wrapper(lam, row, col, **kwargs):
            # A lookup misses when its shape is new since the last clear;
            # the empty shape is never memoized and costs nothing.
            shape = subdiagram_shape(lam, row, col)
            miss = bool(shape) and shape not in self._shapes
            if miss:
                self._shapes.add(shape)
                self.counts["weights.memo_entries"] = max(
                    self.counts["weights.memo_entries"], len(self._shapes)
                )
            self.counts["weights.memo_misses" if miss else "weights.memo_hits"] += 1
            index = self.open(LOOKUP_MISS if miss else LOOKUP_HIT)
            try:
                return fn(lam, row, col, **kwargs)
            finally:
                self.close(index)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, attr, name in SPANNED:
            self._patch(module, attr, self._spanned(name, getattr(module, attr)))
        for module in WEIGHT_LOOKUPS:
            self._patch(module, "weight_at", self._weight_lookup(module.weight_at))

        clear = weights.clear_weight_cache

        def clear_weight_cache():
            self._shapes.clear()
            clear()

        self._patch(weights, "clear_weight_cache", clear_weight_cache)

        matmul = PolyMatrix.__matmul__

        def traced_matmul(a, b):
            self.counts["weights.matmul_calls"] += 1
            index = self.open("weights.matmul")
            try:
                return matmul(a, b)
            finally:
                self.close(index)

        self._patch(PolyMatrix, "__matmul__", traced_matmul)

        mul = Polynomial.__mul__

        def counted_mul(a, b):
            self.counts["polynomials.mul_calls"] += 1
            self.counts["polynomials.mul_term_pairs"] += len(a) * (
                len(b) if isinstance(b, Polynomial) else 1
            )
            return mul(a, b)

        self._patch(Polynomial, "__mul__", counted_mul)

        remove_corner = Partition.remove_corner

        def counted_remove_corner(lam, cell):
            self.counts["snf.peel_attempts"] += 1
            return remove_corner(lam, cell)

        self._patch(Partition, "remove_corner", counted_remove_corner)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            inclusive[name] += duration
            if parent >= 0:
                children[parent] += duration
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - children[index]
        return inclusive, own

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics of the traced passes: ``name -> (value, unit)``.

        ``*_s`` of a span is its inclusive time, except where the name says
        self time (``self_s``, ``render_s``, the two reductions and the row
        sum), which excludes every traced child.
        """
        inclusive, own = self.times()
        counts = self.counts
        hits, misses = counts["weights.memo_hits"], counts["weights.memo_misses"]
        return {
            "weights.memo_misses": (misses, "count"),
            "weights.memo_hit_ratio": (hits / (hits + misses), "ratio"),
            "weights.miss_s": (inclusive[LOOKUP_MISS], "s"),
            "weights.hit_s": (inclusive[LOOKUP_HIT], "s"),
            "weights.memo_entries": (counts["weights.memo_entries"], "count"),
            "weights.matmul_calls": (counts["weights.matmul_calls"], "count"),
            "snf.certify_s": (inclusive["snf.certify"], "s"),
            "polynomials.mul_calls": (counts["polynomials.mul_calls"], "count"),
            "polynomials.mul_term_pairs": (counts["polynomials.mul_term_pairs"], "count"),
            "snf.reduce_inductive_s": (own["snf.reduce_inductive"], "s"),
            "snf.reduce_recurrence_s": (own["snf.reduce_recurrence"], "s"),
            "snf.peel_attempts": (counts["snf.peel_attempts"], "count"),
            "recurrence.row_sum_s": (own["recurrence.row_sum"], "s"),
            "recurrence.row_coefficients_s": (inclusive["recurrence.row_coefficients"], "s"),
            "snf.reverify_s": (inclusive["snf.reverify"], "s"),
            "snf.determinant_s": (inclusive["snf.determinant"], "s"),
            "checks.self_s": (own["checks"], "s"),
            "qcatalan.self_s": (own["qcatalan"], "s"),
            "cli.render_s": (own["cli"], "s"),
            "cli.bytes_out": (counts["cli.bytes_out"], "B"),
            "trace.overhead_s": (overhead_s, "s"),
        }
