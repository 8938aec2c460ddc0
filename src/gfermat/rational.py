"""Rationals (``Fraction``, serialized as ``"p/q"`` or ``"p"``) and the
integer exact core: projective scaling, clearing denominators and the two
fraction-free (Bareiss) eliminations, D B^{-1} C for one frame B and the
signed minor engine.  The engine sweeps subsets depth first on an explicit
stack: subsets with a common prefix share its elimination steps, and r is
not bounded by the recursion limit."""

from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction

from .errors import ValidationError

__all__ = [
    "rational_from_string",
    "rational_to_string",
    "projective_normalize",
    "clear_denominators",
    "fraction_free_solve",
    "minors",
]


def rational_from_string(value) -> Fraction:
    """The rational scalar of a payload (docs/SCHEMAS.md): a JSON integer,
    or a string such as ``"p/q"``, ``"p"`` or ``"2.5e-3"``.  Anything else
    is a ``ValidationError``: a bool, a float, any other type, ``"1/0"``,
    malformed text, and a decimal exponent past CPython's int-to-str digit
    limit, refused before ``Fraction`` builds 10^|exponent|."""
    if isinstance(value, bool):
        raise ValidationError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exp = re.search(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", value, re.IGNORECASE)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and exp and (len(exp[1]) > limit or int(exp[1]) > limit):
            raise ValidationError(f"malformed rational {value!r}: exponent over the limit {limit}")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed rational {value!r}: {exc}") from exc
    raise ValidationError(f"expected a rational string, got {value!r}")


def rational_to_string(value: Fraction) -> str:
    return str(value if type(value) is Fraction else Fraction(value))


def projective_normalize(vec) -> tuple:
    """Scale a nonzero vector so its first nonzero entry is 1 (idempotent).
    An ``int`` pivot divides as ``Fraction(x, pivot)``, so no division rounds."""
    vec = tuple(vec)
    for entry in vec:
        if entry != 0:
            if type(entry) is int:
                return tuple([Fraction(x, entry) for x in vec])
            return tuple(x / entry for x in vec)
    raise ValueError("cannot normalize the zero vector")


def clear_denominators(vec) -> tuple[tuple[int, ...], int]:
    """``(ints, den)`` with vec == ints / den, den the least common denominator."""
    vec = [x if type(x) is Fraction else Fraction(x) for x in vec]
    den = math.lcm(*(x.denominator for x in vec))
    return tuple(x.numerator * (den // x.denominator) for x in vec), den


def fraction_free_solve(frame, columns) -> list[list[int]]:
    """The rows of D B^{-1} C, D = +-det B, for integer B and C given by
    their columns, by fraction-free Gauss-Jordan elimination on [B | C]
    (Bareiss 1968): entries stay minors of [B | C], so each ``//`` is exact.
    A step drops its pivot column, as the left block ends as D I.  Raises
    ValueError if B is singular."""
    a = [list(row) for row in zip(*frame, *columns)]
    prev = 1
    for k in range(len(frame)):
        swap = next((r for r in range(k, len(a)) if a[r][0]), None)
        if swap is None:
            raise ValueError("matrix is singular")
        a[k], a[swap] = a[swap], a[k]
        p = a[k]
        pk, tail = p[0], p[1:]
        a = [tail if row is p else [(pk * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
             for row in a]
        prev = pk
    return a


def minors(columns):
    """The signed determinant of every r of the integer vectors ``columns``,
    each of length r, lazily and in ``itertools.combinations`` order.  A
    stack level holds the vectors after a prefix, reduced against it by
    fraction-free Bareiss (entries stay minors, so ``//`` is exact).  The
    next vector p pivots on its first nonzero coordinate k, a sign (-1)^k,
    and each later vector is reduced once for every subset extending the
    prefix.  A zero p has only zero minors below it; a leaf is one 2x2
    determinant over the previous pivot."""
    r = len(columns[0])
    if r == 1:
        yield from (v[0] for v in columns)
        return
    stack = [[columns, 1, 1, 0]]  # reduced rest, previous pivot, sign, next place
    while stack:
        rest, prev, sign, i = level = stack[-1]
        left = r + 1 - len(stack)  # vectors still to choose, this one included
        if len(rest) - i < left:
            stack.pop()
            continue
        level[3] = i + 1
        p = rest[i]
        if left == 2:
            a, b = p
            for v in rest[i + 1:]:
                yield sign * (a * v[1] - b * v[0]) // prev
            continue
        k = next((k for k, x in enumerate(p) if x), None)
        if k is None:
            yield from itertools.repeat(0, math.comb(len(rest) - i - 1, left - 1))
            continue
        pk, later = p[k], []
        for v in rest[i + 1:]:
            vk = v[k]
            w = [(pk * x - vk * y) // prev for x, y in zip(v, p)]
            del w[k]
            later.append(w)
        stack.append([later, pk, -sign if k % 2 else sign, 0])
