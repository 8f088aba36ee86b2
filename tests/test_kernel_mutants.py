"""Kernel mutants: each is a wrong version of one of the packed multiply
kernels, and the self-test must catch it.

A mutant is put in place of the kernel wherever the library binds it,
the public function and its unguarded body alike, so every reduction,
certification and check runs on it.  It is caught when ``run_selftest(8)``
reports a failure, or when a certification raises out of it.
"""

from operator import add

import pytest

import partition_snf.checks as checks_module
import partition_snf.polynomials as polynomials_module
import partition_snf.qcatalan as qcatalan_module
import partition_snf.recurrence as recurrence_module
import partition_snf.snf as snf_module
import partition_snf.weights as weights_module
from partition_snf import VerificationFailed, run_selftest
from partition_snf.polynomials import _fields

LIBRARY = (
    polynomials_module,
    snf_module,
    checks_module,
    weights_module,
    recurrence_module,
    qcatalan_module,
)

FIELD = 16
MASK = (1 << FIELD) - 1
# The mutant degree field holds degrees below 2**CARRY_WIDTH; the
# self-test's products of size-8 weights pass that.
CARRY_WIDTH = 3


def patch_kernel(monkeypatch, name: str, kernel) -> None:
    """Put ``kernel`` in place of the multiply kernel ``name`` wherever
    the library binds it: the public function and its unguarded body
    ``_name``, in every module that imports either."""
    for module in LIBRARY:
        for attr in (name, "_" + name):
            if attr in vars(module):
                monkeypatch.setattr(module, attr, kernel)


def mutant_fold(product_key=add, kept_zeros=0):
    """A packed ``fold`` whose term products have the key ``product_key``
    gives them, or are dropped where it gives ``None``, and which keeps the
    first ``kept_zeros`` cancelled terms of each call with coefficient 0.
    With the defaults it is a correct fold."""

    def fold(base, products):
        acc = dict(base)
        spare = kept_zeros
        for a, b in products:
            for ka, ca in a.items():
                for kb, cb in b.items():
                    key = product_key(ka, kb)
                    if key is None:
                        continue
                    c = acc.get(key, 0) + ca * cb
                    if c:
                        acc[key] = c
                    elif spare:
                        spare -= 1
                        acc[key] = c
                    else:
                        # A kept zero may come back in as a factor.
                        acc.pop(key, None)
        return acc

    return fold


def squarefree_key(ka: int, kb: int):
    """The product key, or ``None`` when an exponent reaches 2: the ring
    in which every variable squares to 0."""
    key = ka + kb
    return None if max(_fields(key >> FIELD), default=0) > 1 else key


def carried_key(ka: int, kb: int) -> int:
    """The product key with the degree field wrapped at ``CARRY_WIDTH``
    bits, its carry going into the first cell field, as an unchecked
    overflow of the real field would."""
    degree = (ka & MASK) + (kb & MASK)
    body = (ka >> FIELD) + (kb >> FIELD)
    if degree >> CARRY_WIDTH:
        degree -= 1 << CARRY_WIDTH
        body += 1
    return body << FIELD | degree


def times_off_by_one_field(terms, key):
    """``times`` by the monomial one field further along: each cell of
    ``key`` moved one column right."""
    moved = (key >> FIELD) << 2 * FIELD | key & MASK
    return {k + moved: c for k, c in terms.items()}


MUTANTS = {
    "fold modulo squares": ("fold", mutant_fold(product_key=squarefree_key)),
    "fold keeping one cancelled term": ("fold", mutant_fold(kept_zeros=1)),
    "times off by one field": ("times", times_off_by_one_field),
    "fold carrying out of a narrow degree field": (
        "fold",
        mutant_fold(product_key=carried_key),
    ),
}


def test_the_unmutated_kernel_passes(monkeypatch):
    # The harness itself: a correct fold put in place of the kernel is
    # called, and the self-test passes on it.
    calls = []
    fold = mutant_fold()

    def counted(base, products):
        calls.append(1)
        return fold(base, products)

    patch_kernel(monkeypatch, "fold", counted)
    assert run_selftest(8).ok
    assert calls


@pytest.mark.parametrize("name", MUTANTS)
def test_the_selftest_catches(monkeypatch, name):
    kernel, mutant = MUTANTS[name]
    patch_kernel(monkeypatch, kernel, mutant)
    try:
        report = run_selftest(8)
    except VerificationFailed:
        return
    assert not report.ok, f"{name} passed every check"
