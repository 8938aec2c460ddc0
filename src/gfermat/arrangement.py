"""Hyperplane arrangements in P^d and their normal forms.

A hyperplane is stored through its dual point: the hyperplane with dual
point q = [r_1 : ... : r_{d+1}] is {r_1 t_1 + ... + r_{d+1} t_{d+1} = 0}.
An ordered arrangement of n+1 hyperplanes in general position has a unique
projective normal form in which the first d+2 dual points become the
standard frame e_1, ..., e_{d+1}, (1,...,1); the remaining points then read
off the standard parameter table (rows [l_{i,1} : ... : l_{i,d} : 1]).

General position is the rank condition: every d+1 of the dual points are
linearly independent, i.e. every maximal minor of the (d+1) x (n+1) dual
matrix is nonzero.  (For s < d+1 this already forces any s of the
hyperplanes to meet in a (d-s)-plane.)  It is decided on integer points:
clearing a point's denominators scales each minor through it by a nonzero
integer, which cannot turn the minor zero or nonzero.

Normal forms are computed on integers.  Dual points are cleared to integer
vectors; fraction-free Gauss-Jordan gives M = D B^{-1} (D = +-det B) for the
frame B of the first d+1 points as columns, and T_ij = M_ij / (M a)_i for the
(d+2)-nd point a.  Scaling a frame point, or D, scales rows of M and of M a
alike, so only the scale of a survives in T; the table entries
(M q)_j (M a)_d / ((M a)_j (M q)_d) are invariant under every scaling.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInGeneralPosition
from .rational import (
    clear_denominators,
    fraction_free_inverse,
    minors,
    projective_normalize,
    rational_from_string,
    rational_to_string,
)

__all__ = [
    "Hyperplane",
    "Arrangement",
    "StandardParameter",
    "is_general_position",
    "normalize",
    "arrangement_of",
    "is_standard_parameter",
    "random_parameter",
]


@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane of P^d given by its dual point in canonical form."""

    dual_point: tuple[Fraction, ...]

    def __post_init__(self):
        normalized = projective_normalize(
            tuple(Fraction(c) for c in self.dual_point)
        )
        object.__setattr__(self, "dual_point", normalized)

    @property
    def dimension(self) -> int:
        return len(self.dual_point) - 1


@dataclass(frozen=True)
class Arrangement:
    """An ordered tuple of n+1 hyperplanes of P^d, n >= d+1."""

    d: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("ambient dimension must be >= 1")
        planes = tuple(
            h if isinstance(h, Hyperplane) else Hyperplane(tuple(h))
            for h in self.hyperplanes
        )
        if any(h.dimension != self.d for h in planes):
            raise ValueError("hyperplane dual points must have length d+1")
        if len(planes) < self.d + 2:
            raise ValueError("an arrangement needs at least d+2 hyperplanes")
        object.__setattr__(self, "hyperplanes", planes)

    @property
    def n(self) -> int:
        return len(self.hyperplanes) - 1

    @property
    def duals(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(h.dual_point for h in self.hyperplanes)

    def is_general_position(self) -> bool:
        return is_general_position(self.duals, self.d)

    def to_json(self):
        return {
            "d": self.d,
            "points": [[rational_to_string(c) for c in q] for q in self.duals],
        }

    @classmethod
    def from_json(cls, data) -> Arrangement:
        d = int(data["d"])
        points = [
            tuple(rational_from_string(c) for c in q) for q in data["points"]
        ]
        return cls(d, tuple(Hyperplane(q) for q in points))


@dataclass(frozen=True)
class StandardParameter:
    """A point of the normal-form parameter set X_{n,d}.

    ``rows`` holds the (n-d-1) x d table; row i is the affine part of the
    dual point [l_{i,1} : ... : l_{i,d} : 1] of hyperplane d+2+i.  The table
    is empty when n = d+1.  Column j (the tuple of the j-th entries across
    rows) matches the coordinate-wise presentation used by the closed-form
    generator actions.
    """

    d: int
    n: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.d < 1 or self.n < self.d + 1:
            raise ValueError("need d >= 1 and n >= d+1")
        rows = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in self.rows
        )
        if len(rows) != self.n - self.d - 1:
            raise ValueError("parameter table must have n-d-1 rows")
        if any(len(row) != self.d for row in rows):
            raise ValueError("parameter table rows must have d entries")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, d: int, n: int, rows) -> StandardParameter:
        """A parameter built without ``__post_init__``: ``rows`` must
        already be a tuple of n-d-1 tuples of d ``Fraction``s."""
        par = object.__new__(cls)
        par.__dict__.update(d=d, n=n, rows=rows)
        return par

    @property
    def columns(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(zip(*self.rows)) if self.rows else tuple(() for _ in range(self.d))

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(itertools.chain.from_iterable(self.rows))

    def to_json(self):
        return {
            "d": self.d,
            "n": self.n,
            "lambda": [[rational_to_string(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data) -> StandardParameter:
        return cls(
            int(data["d"]),
            int(data["n"]),
            tuple(
                tuple(rational_from_string(x) for x in row)
                for row in data["lambda"]
            ),
        )

    @classmethod
    def from_columns(cls, d, n, columns) -> StandardParameter:
        columns = [tuple(Fraction(x) for x in col) for col in columns]
        if len(columns) != d:
            raise ValueError("need d columns")
        return cls(d, n, tuple(zip(*columns)) if columns[0] else ())


def is_general_position(points, d: int) -> bool:
    """True iff every d+1 of the dual points are linearly independent.

    Rejects (raises) vectors of the wrong length, zero vectors, and lists
    with fewer than d+2 points.
    """
    pts = [clear_denominators(p)[0] for p in points]
    if len(pts) < d + 2:
        raise ValueError("need at least d+2 points")
    for p in pts:
        if len(p) != d + 1:
            raise ValueError("points must be vectors of length d+1")
        if not any(p):
            raise ValueError("the zero vector is not a projective point")
    return all(minors(pts))


def normalize(arr: Arrangement, *, check: bool = True):
    """Return (T, parameter) for a general-position arrangement.

    T is the (d+1) x (d+1) matrix acting on dual points (as columns): it
    maps the j-th dual point to a multiple of e_j for j = 1, ..., d+1, the
    (d+2)-nd to exactly (1, ..., 1), and the remaining ones to multiples of
    [l_{i,1} : ... : l_{i,d} : 1].  T is unique up to a global scalar.

    Computed on integers (module docstring); the anchor's common denominator
    is multiplied back into T.  With ``check=False`` a singular frame raises
    ValueError and a zero in M a or in a table denominator ZeroDivisionError.
    """
    from .exactfield import ExactMatrix

    d = arr.d
    duals = arr.duals
    if check and not is_general_position(duals, d):
        raise NotInGeneralPosition("arrangement is not in general position")
    points, dens = zip(*(clear_denominators(q) for q in duals))
    m, anchor, rows = _frame_normal_form(points, d)
    transform = ExactMatrix.from_rows(
        [[Fraction(x * dens[d + 1], a) for x in row] for row, a in zip(m, anchor)])
    return transform, StandardParameter(d, arr.n, rows)


def _frame_normal_form(points, d: int):
    """(M, M a, table rows) for integer dual points (module docstring)."""
    m = fraction_free_inverse(list(zip(*points[: d + 1])))
    anchor, *images = [[sum(x * y for x, y in zip(row, q)) for row in m] for q in points[d + 1:]]
    if not all(anchor):
        raise ZeroDivisionError("the (d+2)-nd dual point lies on a frame hyperplane")
    rows = tuple(tuple(Fraction(b[j] * anchor[d], anchor[j] * b[d]) for j in range(d))
                 for b in images)
    return m, anchor, rows


def _integer_duals(par: StandardParameter) -> list[tuple[int, ...]]:
    """Dual points of arrangement_of(par), each cleared to integers."""
    d = par.d
    frame = [tuple(int(i == j) for i in range(d + 1)) for j in range(d + 1)] + [(1,) * (d + 1)]
    return frame + [clear_denominators(row + (1,))[0] for row in par.rows]


def arrangement_of(par: StandardParameter) -> Arrangement:
    """The canonical ordered arrangement attached to a parameter table."""
    return Arrangement(par.d, tuple(Hyperplane(q) for q in _integer_duals(par)))


def is_standard_parameter(par: StandardParameter) -> bool:
    """Membership test for X_{n,d} (general position of the derived duals)."""
    return all(minors(_integer_duals(par)))


def random_parameter(d: int, n: int, rng: random.Random, bound: int = 9) -> StandardParameter:
    """Rejection-sample a parameter table uniformly from small rationals."""

    def draw():
        num = rng.randint(-bound, bound)
        den = rng.randint(1, bound)
        return Fraction(num, den)

    while True:
        rows = tuple(
            tuple(draw() for _ in range(d)) for _ in range(n - d - 1)
        )
        candidate = StandardParameter(d, n, rows)
        if is_standard_parameter(candidate):
            return candidate
