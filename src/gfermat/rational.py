"""Rationals (``Fraction``, serialized as ``"p/q"`` or ``"p"``) and the
integer exact core: projective scaling, clearing denominators, the
fraction-free (Bareiss) inverse of one frame and the signed minor engine.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

Rational = Fraction

__all__ = [
    "Rational",
    "rational_from_string",
    "rational_to_string",
    "projective_normalize",
    "clear_denominators",
    "fraction_free_inverse",
    "minors",
]


def rational_from_string(text) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (also accepts ints and Fractions)."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        return Fraction(text.strip())
    raise ValueError(f"cannot parse rational from {text!r}")


def rational_to_string(value: Fraction) -> str:
    return str(Fraction(value))


def projective_normalize(vec) -> tuple:
    """Scale a nonzero vector so its first nonzero entry is 1 (idempotent).
    An ``int`` pivot becomes a ``Fraction`` first, so no division rounds."""
    vec = tuple(vec)
    for entry in vec:
        if entry != 0:
            if type(entry) is int:
                entry = Fraction(entry)
            return tuple(x / entry for x in vec)
    raise ValueError("cannot normalize the zero vector")


def clear_denominators(vec) -> tuple[tuple[int, ...], int]:
    """``(ints, den)`` with vec == ints / den, den the least common denominator."""
    vec = [Fraction(x) for x in vec]
    den = math.lcm(*(x.denominator for x in vec))
    return tuple(x.numerator * (den // x.denominator) for x in vec), den


def fraction_free_inverse(rows) -> list[list[int]]:
    """D B^{-1}, D = +-det B, for a square integer matrix B by fraction-free
    Gauss-Jordan elimination on [B | I] (Bareiss 1968): entries stay minors
    of [B | I], so each ``//`` is exact.  Raises ValueError if B is singular."""
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        swap = next((r for r in range(k, n) if a[r][k]), None)
        if swap is None:
            raise ValueError("matrix is singular")
        a[k], a[swap] = a[swap], a[k]
        p = a[k]
        a = [row if row is p else [(p[k] * x - row[k] * y) // prev for x, y in zip(row, p)]
             for row in a]
        prev = p[k]
    return [row[n:] for row in a]


def minors(columns):
    """The signed determinant of every r of the integer vectors ``columns``,
    each of length r, in ``itertools.combinations`` order: fraction-free
    Bareiss on ``int`` (entries stay minors, so ``//`` is exact) per subset.
    A pivot from place k is a sign (-1)^k; a zero pivot column gives 0."""
    for subset in itertools.combinations(columns, len(columns[0])):
        vecs, prev, sign = list(subset), 1, 1
        while vecs and prev:
            k = 0 if vecs[0][0] else next((i for i, v in enumerate(vecs) if v[0]), 0)
            p = vecs.pop(k)
            vecs = [[(p[0] * x - v[0] * y) // prev for x, y in zip(v[1:], p[1:])] for v in vecs]
            prev, sign = p[0], -sign if k % 2 else sign
        yield sign * prev
